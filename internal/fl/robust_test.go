package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/param"
	"calibre/internal/tensor"
)

// robustAggregatorsUnderTest builds one of each robust aggregator. Krum's F
// is kept small enough that the 5-update fixtures used throughout satisfy
// n ≥ F+3.
func robustAggregatorsUnderTest() map[string]RobustAggregator {
	return map[string]RobustAggregator{
		"trimmed(0.2)": TrimmedMean{Frac: 0.2},
		"median":       CoordinateMedian{},
		"krum(1)":      Krum{F: 1},
	}
}

// TestRobustAggregatorsShardedBitIdentical pins the contract the sweep
// engine depends on: every robust aggregator is bit-identical to its serial
// sweep at any kernel-pool size, at dimensions straddling the shard
// threshold. Krum shards over pairs, so it is exercised with enough updates
// that the pair count itself straddles sharding.
func TestRobustAggregatorsShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	defer tensor.SetWorkers(0)
	for _, n := range []int{37, param.MinShard, 3*param.MinShard + 11} {
		global := planeVector(rng, n)
		updates := planeUpdates(rng, n, 5, false)
		serial := make(map[string]param.Vector)
		tensor.SetWorkers(1)
		for name, agg := range robustAggregatorsUnderTest() {
			out, err := agg.Aggregate(global, updates)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			serial[name] = out
		}
		for _, workers := range []int{1, 2, 4, 8} {
			tensor.SetWorkers(workers)
			for name, agg := range robustAggregatorsUnderTest() {
				out, err := agg.Aggregate(global, updates)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(serial[name][i]) {
						t.Fatalf("%s n=%d workers=%d: element %d differs from serial", name, n, workers, i)
					}
				}
			}
		}
	}
}

// TestRobustAggregatorsNeverMutateInputs extends the read-only contract to
// the robust rules: global and every update payload stay bit-identical, and
// the result is a vector of its own (Krum returns a copy, not the winning
// update's own slice).
func TestRobustAggregatorsNeverMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 2*param.MinShard + 7
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 5, false)

	globalBits := cloneBits(global)
	paramBits := make([][]uint64, len(updates))
	for k, u := range updates {
		paramBits[k] = cloneBits(u.Params)
	}
	for name, agg := range robustAggregatorsUnderTest() {
		out, err := agg.Aggregate(global, updates)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if &out[0] == &global[0] {
			t.Fatalf("%s: returned vector aliases global", name)
		}
		for _, u := range updates {
			if &out[0] == &u.Params[0] {
				t.Fatalf("%s: returned vector aliases an update payload", name)
			}
		}
		assertBitsUnchanged(t, name+" global", global, globalBits)
		for k, u := range updates {
			assertBitsUnchanged(t, name+" params", u.Params, paramBits[k])
		}
	}
}

// TestRobustAggregatorsPermutationInvariant pins order-freeness: the robust
// rules aggregate per-coordinate order statistics (or a distance-selected
// single vector), so shuffling the update slice must not change a bit of the
// output. WeightedAverage is deliberately excluded — its summation order
// follows update order.
func TestRobustAggregatorsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := param.MinShard + 3
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 6, false)
	for name, agg := range robustAggregatorsUnderTest() {
		want, err := agg.Aggregate(global, updates)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for trial := 0; trial < 5; trial++ {
			perm := make([]*Update, len(updates))
			for i, j := range rng.Perm(len(updates)) {
				perm[i] = updates[j]
			}
			got, err := agg.Aggregate(global, perm)
			if err != nil {
				t.Fatalf("%s permuted: %v", name, err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: permutation changed element %d", name, i)
				}
			}
		}
	}
}

// TestTrimmedMeanZeroFracMatchesUnweightedMean pins the degenerate case:
// trimmed(0) is the unweighted mean, which equals WeightedAverage when every
// update carries the same sample count. Summation order differs (sorted vs
// update order), so the comparison is tolerance-based, not bitwise.
func TestTrimmedMeanZeroFracMatchesUnweightedMean(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 64
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 5, false)
	for _, u := range updates {
		u.NumSamples = 10
	}
	trimmed, err := TrimmedMean{}.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("trimmed(0): %v", err)
	}
	mean, err := WeightedAverage{}.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("mean: %v", err)
	}
	for i := range trimmed {
		if math.Abs(trimmed[i]-mean[i]) > 1e-12 {
			t.Fatalf("trimmed(0) diverges from equal-weight mean at %d: %g vs %g", i, trimmed[i], mean[i])
		}
	}
}

// TestTrimmedMeanDiscardsOutliers: with Frac=0.2 and 5 updates one value is
// trimmed per side, so a single arbitrarily large poison value per
// coordinate cannot move the aggregate at all.
func TestTrimmedMeanDiscardsOutliers(t *testing.T) {
	global := param.Vector{0, 0}
	honest := []*Update{
		{ClientID: 0, Params: param.Vector{1, -1}},
		{ClientID: 1, Params: param.Vector{2, -2}},
		{ClientID: 2, Params: param.Vector{3, -3}},
		{ClientID: 3, Params: param.Vector{4, -4}},
	}
	poisoned := append(append([]*Update(nil), honest...),
		&Update{ClientID: 4, Params: param.Vector{1e12, -1e12}})
	out, err := TrimmedMean{Frac: 0.2}.Aggregate(global, poisoned)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	// Surviving values per coordinate: {2,3,4} and {-2,-3,-4}.
	if math.Abs(out[0]-3) > 1e-12 || math.Abs(out[1]+3) > 1e-12 {
		t.Fatalf("poison leaked through the trim: %v", out)
	}
}

// TestTrimmedMeanRejectsBadFrac: the validity window is [0, 0.5).
func TestTrimmedMeanRejectsBadFrac(t *testing.T) {
	updates := []*Update{{Params: param.Vector{1}}}
	for _, frac := range []float64{-0.1, 0.5, 0.7, math.NaN()} {
		if _, err := (TrimmedMean{Frac: frac}).Aggregate(param.Vector{0}, updates); err == nil {
			t.Fatalf("frac=%g must be rejected", frac)
		}
	}
	if _, err := (TrimmedMean{}).Aggregate(param.Vector{0}, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("empty updates err = %v", err)
	}
}

// TestCoordinateMedian pins the odd (middle value) and even (middle-pair
// mean) definitions.
func TestCoordinateMedian(t *testing.T) {
	global := param.Vector{0}
	odd := []*Update{
		{Params: param.Vector{5}}, {Params: param.Vector{-1}}, {Params: param.Vector{2}},
	}
	out, err := CoordinateMedian{}.Aggregate(global, odd)
	if err != nil || out[0] != 2 {
		t.Fatalf("odd median = %v, %v", out, err)
	}
	even := append(odd, &Update{Params: param.Vector{3}})
	out, err = CoordinateMedian{}.Aggregate(global, even)
	if err != nil || out[0] != 2.5 {
		t.Fatalf("even median = %v, %v", out, err)
	}
	if _, err := (CoordinateMedian{}).Aggregate(global, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("empty updates err = %v", err)
	}
}

// TestKrumSelectsHonestUpdate: with one sign-flipped outlier among four
// tight honest updates, krum(1) must select one of the honest vectors — the
// outlier's neighborhood score is dominated by its distance to the cluster.
func TestKrumSelectsHonestUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 32
	center := planeVector(rng, n)
	updates := make([]*Update, 0, 5)
	for i := 0; i < 4; i++ {
		p := make(param.Vector, n)
		for j := range p {
			p[j] = center[j] + 0.01*rng.NormFloat64()
		}
		updates = append(updates, &Update{ClientID: i, Params: p})
	}
	flipped := make(param.Vector, n)
	for j := range flipped {
		flipped[j] = -3 * center[j]
	}
	updates = append(updates, &Update{ClientID: 4, Params: flipped})

	out, err := Krum{F: 1}.Aggregate(make(param.Vector, n), updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	matched := -1
	for i := 0; i < 4; i++ {
		if math.Float64bits(out[0]) == math.Float64bits(updates[i].Params[0]) {
			matched = i
			break
		}
	}
	if matched < 0 {
		t.Fatalf("krum selected the poisoned update")
	}
	for j := range out {
		if math.Float64bits(out[j]) != math.Float64bits(updates[matched].Params[j]) {
			t.Fatalf("krum output is not a verbatim copy of update %d", matched)
		}
	}
}

// TestKrumTooFewUpdates pins the n ≥ F+3 floor and its typed error.
func TestKrumTooFewUpdates(t *testing.T) {
	updates := []*Update{
		{Params: param.Vector{1}}, {Params: param.Vector{2}}, {Params: param.Vector{3}},
	}
	if _, err := (Krum{F: 1}).Aggregate(param.Vector{0}, updates); !errors.Is(err, ErrTooFewUpdates) {
		t.Fatalf("krum(1) with 3 updates: err = %v, want ErrTooFewUpdates", err)
	}
	if out, err := (Krum{F: 0}).Aggregate(param.Vector{0}, updates); err != nil || len(out) != 1 {
		t.Fatalf("krum(0) with 3 updates should work: %v, %v", out, err)
	}
	if _, err := (Krum{F: -1}).Aggregate(param.Vector{0}, updates); err == nil {
		t.Fatal("negative F must be rejected")
	}
	if _, err := (Krum{F: 1}).Aggregate(param.Vector{0}, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("empty updates err = %v", err)
	}
}

// TestRobustAggregatorsIgnoreNumSamples: sample counts are
// attacker-controlled metadata, so inflating one must not move any robust
// aggregate by a single bit.
func TestRobustAggregatorsIgnoreNumSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 16
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 5, false)
	for name, agg := range robustAggregatorsUnderTest() {
		want, err := agg.Aggregate(global, updates)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inflated := make([]*Update, len(updates))
		for i, u := range updates {
			cp := *u
			cp.NumSamples = 1 << 30
			inflated[i] = &cp
		}
		got, err := agg.Aggregate(global, inflated)
		if err != nil {
			t.Fatalf("%s inflated: %v", name, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: NumSamples influenced element %d", name, i)
			}
		}
	}
}

// TestRejectedAccounting pins the Rejected(n) arithmetic the runtimes report
// through RoundStats and the obs counters.
func TestRejectedAccounting(t *testing.T) {
	cases := []struct {
		agg  RobustAggregator
		n    int
		want int
	}{
		{TrimmedMean{Frac: 0.2}, 5, 2},
		{TrimmedMean{Frac: 0.2}, 4, 0},
		{TrimmedMean{Frac: 0.4}, 10, 8},
		{TrimmedMean{}, 100, 0},
		{CoordinateMedian{}, 1, 0},
		{CoordinateMedian{}, 2, 0},
		{CoordinateMedian{}, 5, 4},
		{CoordinateMedian{}, 6, 4},
		{Krum{F: 1}, 5, 4},
		{Krum{F: 0}, 1, 0},
	}
	for _, c := range cases {
		if got := c.agg.Rejected(c.n); got != c.want {
			t.Errorf("%v.Rejected(%d) = %d, want %d", c.agg, c.n, got, c.want)
		}
	}
}

// TestParseAggregatorRoundTrip: Parse∘String is the identity on canonical
// specs — the property the sweep grid's duplicate detection relies on.
func TestParseAggregatorRoundTrip(t *testing.T) {
	for _, spec := range []string{"mean", "median", "trimmed(0.2)", "trimmed(0.25)", "krum(0)", "krum(3)"} {
		agg, err := ParseAggregator(spec)
		if err != nil {
			t.Fatalf("ParseAggregator(%q): %v", spec, err)
		}
		if got := fmt.Sprint(agg); got != spec {
			t.Errorf("ParseAggregator(%q).String() = %q", spec, got)
		}
	}
	if agg, err := ParseAggregator(""); err != nil || fmt.Sprint(agg) != "mean" {
		t.Errorf("empty spec: %v, %v", agg, err)
	}
	for spec, want := range map[string]string{"median()": "median", "mean()": "mean", "trimmed( 0.2)": "trimmed(0.2)", "krum( 1 )": "krum(1)"} {
		if agg, err := ParseAggregator(spec); err != nil || fmt.Sprint(agg) != want {
			t.Errorf("ParseAggregator(%q) = %v, %v; want %s", spec, agg, err, want)
		}
	}
	for _, bad := range []string{"average", "trimmed", "trimmed()", "trimmed(0.5)", "trimmed(-1)", "trimmed(x)", "trimmed(0.1,0.2)", "krum(-1)", "krum(1.5)", "krum", "median(2)", "mean(", "trimmed(0.2", " "} {
		if _, err := ParseAggregator(bad); err == nil {
			t.Errorf("ParseAggregator(%q) accepted", bad)
		}
	}
}
