package fl

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestDiurnalDropProb pins the sine: Base at the trough phase, Base+Amp at
// the peak, periodic in Period rounds.
func TestDiurnalDropProb(t *testing.T) {
	cfg := &TraceConfig{Kind: TraceDiurnal, Base: 0.1, Amp: 0.6, Period: 8}
	g := cfg.Generator(1)
	// Round 0: sin(0)=0 → Base + Amp/2.
	if p := g.DropProb(0, 3); math.Abs(p-0.4) > 1e-12 {
		t.Fatalf("round 0: %g", p)
	}
	// Round 2: sin(π/2)=1 → Base + Amp.
	if p := g.DropProb(2, 3); math.Abs(p-0.7) > 1e-12 {
		t.Fatalf("round 2 (peak): %g", p)
	}
	// Round 6: sin(3π/2)=−1 → Base.
	if p := g.DropProb(6, 3); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("round 6 (trough): %g", p)
	}
	// Periodicity and client-independence (tolerance-based: the phase for
	// round 10 reaches sin through a different float argument).
	if math.Abs(g.DropProb(2, 0)-g.DropProb(10, 99)) > 1e-9 {
		t.Fatal("diurnal must be periodic and client-independent")
	}
	// Clamping: Base+Amp beyond 1 saturates.
	sat := (&TraceConfig{Kind: TraceDiurnal, Base: 0.8, Amp: 0.9, Period: 4}).Generator(1)
	if p := sat.DropProb(1, 0); p != 1 {
		t.Fatalf("clamp: %g", p)
	}
}

// TestFlashDropProb pins the burst window [start, start+width).
func TestFlashDropProb(t *testing.T) {
	cfg := &TraceConfig{Kind: TraceFlash, Base: 0.05, Amp: 0.85, Period: 3, Width: 2}
	g := cfg.Generator(1)
	for round, want := range map[int]float64{0: 0.05, 2: 0.05, 3: 0.9, 4: 0.9, 5: 0.05} {
		if p := g.DropProb(round, 0); math.Abs(p-want) > 1e-12 {
			t.Fatalf("round %d: %g, want %g", round, p, want)
		}
	}
}

// TestMarkovPairCorrelation pins the churn model: paired clients (2k, 2k+1)
// always see the same probability, a down pair drops with probability 1,
// and the chain is a pure function of the seed.
func TestMarkovPairCorrelation(t *testing.T) {
	cfg := &TraceConfig{Kind: TraceMarkov, Base: 0.1, PDown: 0.5, PUp: 0.5}
	g := cfg.Generator(42)
	sawDown := false
	for round := 0; round < 50; round++ {
		for pair := 0; pair < 3; pair++ {
			a, b := g.DropProb(round, 2*pair), g.DropProb(round, 2*pair+1)
			if a != b {
				t.Fatalf("pair %d split at round %d: %g vs %g", pair, round, a, b)
			}
			if a != 1 && math.Abs(a-0.1) > 1e-12 {
				t.Fatalf("markov prob must be Base or 1, got %g", a)
			}
			if a == 1 {
				sawDown = true
			}
		}
	}
	if !sawDown {
		t.Fatal("pdown=0.5 over 50 rounds never took a pair down")
	}
	// Round 0 is always up.
	if p := cfg.Generator(7).DropProb(0, 0); p != 0.1 {
		t.Fatalf("round 0 must start up: %g", p)
	}
}

// TestMarkovQueryOrderIndependent: the memoized chains extend strictly
// sequentially, so querying rounds backwards, forwards or interleaved across
// pairs observes the same probabilities — the property resume replay relies
// on.
func TestMarkovQueryOrderIndependent(t *testing.T) {
	cfg := &TraceConfig{Kind: TraceMarkov, Base: 0, PDown: 0.4, PUp: 0.3}
	forward := cfg.Generator(9)
	var want []float64
	for round := 0; round < 20; round++ {
		for client := 0; client < 4; client++ {
			want = append(want, forward.DropProb(round, client))
		}
	}
	backward := cfg.Generator(9)
	var got []float64
	for round := 19; round >= 0; round-- {
		for client := 3; client >= 0; client-- {
			got = append(got, backward.DropProb(round, client))
		}
	}
	// Reverse got back into forward order.
	for i, j := 0, len(got)-1; i < j; i, j = i+1, j-1 {
		got[i], got[j] = got[j], got[i]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("markov probabilities depend on query order")
	}
}

// TestNilTraceGen: a nil generator never drops anyone.
func TestNilTraceGen(t *testing.T) {
	var nilCfg *TraceConfig
	if g := nilCfg.Generator(1); g != nil {
		t.Fatal("nil config must yield a nil generator")
	}
	var g *TraceGen
	if p := g.DropProb(3, 4); p != 0 {
		t.Fatalf("nil generator drop prob: %g", p)
	}
}

// TestParseTraceRoundTrip: Parse∘String is the identity on canonical specs;
// malformed specs are rejected.
func TestParseTraceRoundTrip(t *testing.T) {
	for _, spec := range []string{"flat(0.3)", "flat(0)", "diurnal(0.1,0.6,8)", "flash(0,0.8,2,2)", "markov(0,0.3,0.5)", "diurnal(0,1,1)", "markov(0.25,0,1)"} {
		cfg, err := ParseTrace(spec)
		if err != nil {
			t.Fatalf("ParseTrace(%q): %v", spec, err)
		}
		if got := cfg.String(); got != spec {
			t.Errorf("ParseTrace(%q).String() = %q", spec, got)
		}
	}
	if cfg, err := ParseTrace(""); cfg != nil || err != nil {
		t.Errorf("empty spec: %v, %v", cfg, err)
	}
	bad := []string{
		"diurnal", "diurnal(0.1,0.6)", "diurnal(0.1,0.6,8,9)", "diurnal(0.1,0.6,0)",
		"diurnal(2,0.6,8)", "diurnal(0.1,x,8)", "diurnal(0.1,0.6,8",
		"flash(0,0.8,2)", "flash(0,0.8,-1,2)", "flash(0,0.8,2,0)",
		"markov(0,0.3,0)", "markov(0,0.3,1.5)", "markov(0,1.5,0.5)",
		"weekly(1,2,3)", "markov 0,0.3,0.5", "diurnal()", "markov(0,,0.5)",
		"flat(1)", "flat(-0.1)", "flat(NaN)", "flat(0.1,2)", "flat()",
	}
	for _, spec := range bad {
		if _, err := ParseTrace(spec); err == nil {
			t.Errorf("ParseTrace(%q) accepted", spec)
		}
	}
	// name() is name: no arguments, where diurnal wants three.
	if _, err := ParseTrace("diurnal()"); err == nil || !strings.Contains(err.Error(), "want 3 args, got 0") {
		t.Errorf("ParseTrace(\"diurnal()\") = %v, want a count of 0 args", err)
	}
	if cfg, err := ParseTrace(" flash( 0 , 0.8 ,2, 2) "); err != nil || cfg.String() != "flash(0,0.8,2,2)" {
		t.Errorf("spaces around arguments: %v, %v", cfg, err)
	}
}

// TestTraceValidateUnusedFields: fields outside a kind's vocabulary must be
// zero so specs stay canonical.
func TestTraceValidateUnusedFields(t *testing.T) {
	bad := []TraceConfig{
		{Kind: TraceFlat, Base: 0.1, PUp: 0.5},
		{Kind: TraceDiurnal, Base: 0.1, Amp: 0.5, Period: 4, Width: 2},
		{Kind: TraceFlash, Base: 0.1, Amp: 0.5, Period: 2, Width: 1, PUp: 0.5},
		{Kind: TraceMarkov, Base: 0.1, PDown: 0.3, PUp: 0.5, Period: 2},
	}
	for _, cfg := range bad {
		cfg := cfg
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
	var nilCfg *TraceConfig
	if err := nilCfg.Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}
}

// TestSimulatorRejectsTraceWithDropout: the flat rate is one trace kind
// among the others, so one availability config cannot be both.
func TestSimulatorRejectsTraceWithDropout(t *testing.T) {
	clients := testClients(t, 4)
	cfg := SimConfig{
		Rounds: 1, ClientsPerRound: 2, Seed: 1,
		Federation: Federation{Availability: &TraceConfig{Kind: TraceFlat, Base: 0.2, Amp: 0.5, Period: 4}},
	}
	if _, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients); err == nil {
		t.Fatal("a flat rate with a diurnal shape must be rejected")
	}
	cfg.Availability = &TraceConfig{Kind: "weekly"}
	if _, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients); err == nil {
		t.Fatal("invalid trace must be rejected at construction")
	}
}

// TestSimulatorTraceDropsRounds: under a saturating flash burst every
// sampled client wants to drop, so the quorum-survivor rescue is what keeps
// the federation alive — and the stragglers show up in the stats.
func TestSimulatorTraceDropsRounds(t *testing.T) {
	clients := testClients(t, 6)
	var stats []RoundStats
	cfg := SimConfig{
		Rounds: 4, ClientsPerRound: 4, Seed: 13,
		Federation: Federation{Quorum: 2, Availability: &TraceConfig{Kind: TraceFlash, Base: 0, Amp: 1, Period: 1, Width: 2}},
		OnRound:    func(s RoundStats) { stats = append(stats, s) },
	}
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, s := range []int{0, 3} { // outside the burst: nobody drops
		if len(stats[s].Stragglers) != 0 {
			t.Fatalf("round %d outside the burst dropped %v", s, stats[s].Stragglers)
		}
	}
	for _, s := range []int{1, 2} { // inside: everyone wants out, quorum survives
		if got := len(stats[s].Responders); got != 2 {
			t.Fatalf("round %d inside the burst kept %d, want quorum 2", s, got)
		}
	}
}
