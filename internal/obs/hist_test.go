package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(HistRoundLatency)
	for _, v := range []int64{5_000, 50_000, 50_000, 2_000_000_000, 1 << 62} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs, ok := snap.Histograms[HistRoundLatency]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 5 {
		t.Fatalf("count = %d, want 5", hs.Count)
	}
	if hs.Sum != 5_000+50_000+50_000+2_000_000_000+(1<<62) {
		t.Fatalf("sum = %d", hs.Sum)
	}
	// 5µs → bucket 0 (≤10µs); 50µs ×2 → bucket 1 (≤100µs); 2s → bucket 6
	// (≤10s); huge → +Inf bucket (last).
	want := []int64{1, 2, 0, 0, 0, 0, 1, 0, 1}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Counts), len(want))
	}
	for i, n := range want {
		if hs.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], n, hs.Counts)
		}
	}
	if len(hs.Bounds) != len(hs.Counts)-1 {
		t.Fatalf("bounds %d vs counts %d", len(hs.Bounds), len(hs.Counts))
	}
}

func TestHistogramBoundaryValuesInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	h.Observe(10_000) // exactly the first bound: le is inclusive
	h.Observe(10_001) // just over: next bucket
	hs := r.Snapshot().Histograms["x"]
	if hs.Counts[0] != 1 || hs.Counts[1] != 1 {
		t.Fatalf("boundary bucketing wrong: %v", hs.Counts)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var r *Registry
	r.Histogram(HistClientTurnaround).Observe(5)
	var h *Histogram
	h.Observe(5)
	if len(r.Snapshot().Histograms) != 0 {
		t.Fatal("nil registry grew a histogram")
	}
}

func TestHistogramPromRendering(t *testing.T) {
	r := NewRegistry()
	r.Histogram(HistClientTurnaround).Observe(50_000)
	r.Histogram(HistClientTurnaround).Observe(3_000_000)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# TYPE calibre_client_turnaround_ns histogram
calibre_client_turnaround_ns_bucket{le="10000"} 0
calibre_client_turnaround_ns_bucket{le="100000"} 1
calibre_client_turnaround_ns_bucket{le="1000000"} 1
calibre_client_turnaround_ns_bucket{le="10000000"} 2
calibre_client_turnaround_ns_bucket{le="100000000"} 2
calibre_client_turnaround_ns_bucket{le="1000000000"} 2
calibre_client_turnaround_ns_bucket{le="10000000000"} 2
calibre_client_turnaround_ns_bucket{le="100000000000"} 2
calibre_client_turnaround_ns_bucket{le="+Inf"} 2
calibre_client_turnaround_ns_sum 3050000
calibre_client_turnaround_ns_count 2
`
	if !strings.Contains(got, want) {
		t.Errorf("prom histogram block missing or wrong:\n--- got ---\n%s\n--- want fragment ---\n%s", got, want)
	}
}

func TestHistogramSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x").Observe(1)
	snap := r.Snapshot()
	snap.Histograms["x"].Counts[0] = 99
	if got := r.Snapshot().Histograms["x"].Counts[0]; got != 1 {
		t.Fatalf("mutating snapshot histogram leaked into registry: %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram(HistClientTurnaround)
			for i := 0; i < per; i++ {
				h.Observe(int64(i) * 1000)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	hs := r.Snapshot().Histograms[HistClientTurnaround]
	if hs.Count != workers*per {
		t.Fatalf("count = %d, want %d", hs.Count, workers*per)
	}
	var total int64
	for _, n := range hs.Counts {
		total += n
	}
	if total != hs.Count {
		t.Fatalf("bucket total %d != count %d", total, hs.Count)
	}
}

func TestRegistryWithRing(t *testing.T) {
	r := NewRegistryWithRing(8)
	for i := 0; i < 20; i++ {
		r.ObserveRound(RoundSample{Round: i})
	}
	snap := r.Snapshot()
	if len(snap.Rounds) != 8 {
		t.Fatalf("custom ring len = %d, want 8", len(snap.Rounds))
	}
	if snap.Rounds[0].Round != 12 || snap.Rounds[7].Round != 19 {
		t.Fatalf("custom ring window wrong: %+v", snap.Rounds)
	}
	if snap.Counters[CounterRounds] != 20 {
		t.Fatalf("rounds_total = %d", snap.Counters[CounterRounds])
	}
	if got := len(NewRegistryWithRing(0).rounds); got != 0 {
		t.Fatalf("unexpected preallocation: %d", got)
	}
	// n < 1 falls back to the 256 default.
	rd := NewRegistryWithRing(-3)
	for i := 0; i < roundWindow+5; i++ {
		rd.ObserveRound(RoundSample{Round: i})
	}
	if got := len(rd.Snapshot().Rounds); got != roundWindow {
		t.Fatalf("fallback ring len = %d, want %d", got, roundWindow)
	}
}
