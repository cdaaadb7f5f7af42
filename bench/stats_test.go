package main

import (
	"math"
	"testing"

	"calibre/internal/fl"
)

func TestUnionAndSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 150},
		{Start: 130, End: 170}, // overlaps the first: 110..170 counts once
		{Start: 180, End: 190},
		{Start: 195, End: 260}, // reaches past the parent: only 195..200 counts
		{Start: 10, End: 50},   // entirely outside
	}
	if got, want := selfTime(parent, children), int64(100-(60+10+5)); got != want {
		t.Fatalf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want the whole span", got)
	}
	// Two identical concurrent children cover their interval once.
	twin := []interval{{0, 40}, {0, 40}}
	if got := unionLen(twin, 0, 100); got != 40 {
		t.Fatalf("unionLen of twins = %d, want 40", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{6, 90, 50}, {39, 90, 50}, {40, 90, 75}, {99, 90, 75}, {100, 90, 90}, {120, 90, 90},
		{1000, 90, 90}, // capped at the limit even though p99 would qualify
		{1000, 99.9, 99}, {10000, 99.9, 99.9},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
		p := tailPercentile(c.n, c.limit)
		if beyond := int(float64(c.n)*(100-p)/100 + 1e-9); p > 50 && beyond < minTailSamples {
			t.Errorf("tailPercentile(%d) = %g leaves only %d samples beyond it", c.n, p, beyond)
		}
	}
}

func TestPercentileAndQuartileSpread(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	s := sortedCopy(v)
	if percentile(s, 50) != 3 || percentile(s, 0) != 1 || percentile(s, 100) != 5 || percentile(s, 90) != 4.6 {
		t.Fatalf("percentile wrong on %v", s)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
	if got, want := quartileSpread([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread of three = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Fatal("a single value has no spread")
	}
}

func TestCountOps(t *testing.T) {
	history := []fl.RoundStats{
		{Participants: []int{0, 1, 2}}, // all aggregated
		{Participants: []int{1, 2, 3}, Responders: []int{1, 3}, Stragglers: []int{2}}, // one sampled, not aggregated
	}
	// 4 participants, 3 of them personalized; 2 novel clients, both fine.
	got := countOps(history, 4, 3, 2, 2)
	if want := (opCount{Attempted: 6 + 4 + 2, Failed: 1 + 1}); got != want {
		t.Fatalf("countOps = %+v, want %+v", got, want)
	}
	if r := got.failRate(); math.Abs(r-2.0/12) > 1e-15 {
		t.Fatalf("failRate = %v", r)
	}
	w := workload{rounds: 10, perRound: 5}
	if p := plannedOps(w); p.Attempted != 50 || p.Failed != 50 {
		t.Fatalf("a federation that errors fails everything it planned, got %+v", p)
	}
	if (opCount{}).failRate() != 0 {
		t.Fatal("nothing attempted is not a failure")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rounds_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name            string
		m               metricDef
		exact           bool
		floor, a, b     float64
		spreadA, spreaB float64
		want            string
	}{
		{"relative: within bound", lower, false, 0, 100, 109, 0.01, 0.01, "ok"},
		{"relative: beyond bound", lower, false, 0, 100, 111, 0.01, 0.01, "REGRESSION"},
		{"relative: much better", lower, false, 0, 100, 80, 0.01, 0.01, "better"},
		{"direction: higher is better", higher, false, 0, 10, 8.5, 0.01, 0.01, "REGRESSION"},
		{"direction: more is fine", higher, false, 0, 10, 12, 0.01, 0.01, "better"},
		{"floor: 50% worse but only 4 ms", setup, false, 0.020, 0.008, 0.012, 0.05, 0.05, "ok"},
		{"floor: worse by more than share and floor", setup, false, 0.020, 0.100, 0.130, 0.05, 0.05, "REGRESSION"},
		{"spread wider than the bound", lower, false, 0, 100, 130, 0.12, 0.01, "unresolved"},
		{"exact: identical", metricDef{}, true, 0, 87.4, 87.4, 0, 0, "same"},
		{"exact: any movement", metricDef{}, true, 0, 87.4, 87.40000001, 0, 0, "REGRESSION (exact metric moved)"},
	} {
		if got := verdict(c.m, c.exact, c.floor, c.a, c.b, c.spreadA, c.spreaB); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// A host that turns twice as slow half-way makes raw intervals and
// calibrations double together; calibrated intervals stay flat, apart
// from the window that straddles the change.
func TestCalibratedFollowsTheHost(t *testing.T) {
	const n, nominal = 60, 3.0
	raw := make([]float64, n)
	calib := make([]float64, n+1)
	for i := range calib {
		slow := 1.0
		if i >= n/2 {
			slow = 2
		}
		calib[i] = nominal * slow
		if i < n {
			raw[i] = 100 * slow
		}
	}
	calib[7] = 40 // one calibration hit by a burst must not move its neighbours
	out := calibrated(raw, calib, 5, nominal)
	for i, v := range out {
		if i >= n/2-6 && i <= n/2+5 {
			if v < 50-1e-9 || v > 200+1e-9 {
				t.Errorf("round %d at the change: %v", i, v)
			}
			continue
		}
		if math.Abs(v-100) > 1e-9 {
			t.Errorf("round %d: calibrated %v, want 100", i, v)
		}
	}
	// An undisturbed sizing host changes nothing.
	flat := calibrated([]float64{5, 6, 7}, []float64{3, 3, 3, 3}, 10, 3)
	if flat[0] != 5 || flat[1] != 6 || flat[2] != 7 {
		t.Errorf("calibrated on the nominal host = %v", flat)
	}
}

func TestCalibrationIsFixedWork(t *testing.T) {
	if a, b := calibKernel(), calibKernel(); a != b || math.IsNaN(a) || math.IsInf(a, 0) || a == 0 {
		t.Fatalf("calibKernel() = %v, then %v: want the same finite non-zero loss", a, b)
	}
	m1, b1 := calibrationCost()
	m2, b2 := calibrationCost()
	if m1 == 0 || b1 == 0 {
		t.Fatalf("calibration allocates %d objects, %d bytes", m1, b1)
	}
	// The list of allocations is fixed; a stray runtime allocation may land inside.
	if d := math.Abs(float64(m1) - float64(m2)); d > 0.02*float64(m1) {
		t.Errorf("calibration allocations %d then %d", m1, m2)
	}
	if d := math.Abs(float64(b1) - float64(b2)); d > 0.02*float64(b1) {
		t.Errorf("calibration bytes %d then %d", b1, b2)
	}
}
