package fl

import (
	"fmt"
	"testing"
)

// FuzzParseAggregator hardens the aggregator spec decoder: arbitrary specs
// must never panic, and any spec that parses must reach a canonical fixed
// point — String re-parses to an identical aggregator. Discovered seeds
// live in testdata/fuzz/FuzzParseAggregator.
func FuzzParseAggregator(f *testing.F) {
	for _, spec := range []string{
		"", "mean", "median", "trimmed(0.2)", "krum(1)",
		"trimmed(0.5)", "krum(-1)", "trimmed()", "krum(999999999999999999999)",
		"trimmed(1e-300)", "mean(", "trimmed(0.2))", "median()",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		agg, err := ParseAggregator(spec)
		if err != nil {
			if agg != nil {
				t.Fatalf("error with non-nil aggregator: %v", agg)
			}
			return
		}
		canon := fmt.Sprint(agg)
		again, err := ParseAggregator(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if got := fmt.Sprint(again); got != canon {
			t.Fatalf("String not a fixed point: %q → %q", canon, got)
		}
	})
}

// FuzzParseAdversary hardens the attack spec decoder: no panics, parsed
// specs validate, and String∘Parse is a fixed point.
func FuzzParseAdversary(f *testing.F) {
	for _, spec := range []string{
		"", "sign-flip", "sign-flip(3)", "noise(0.5)", "collude", "label-flip",
		"label-flip(2)", "sign-flip(0)", "sign-flip(-1)", "noise(NaN)",
		"noise(Inf)", "noise(1e308)", "collude(", "collude)", "(1)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAdversary(spec)
		if err != nil {
			if a != nil {
				t.Fatalf("error with non-nil adversary: %v", a)
			}
			return
		}
		if spec == "" {
			if a != nil {
				t.Fatal("empty spec must mean no adversary")
			}
			return
		}
		if verr := a.Validate(); verr != nil {
			t.Fatalf("parsed adversary fails validation: %v", verr)
		}
		canon := a.String()
		again, err := ParseAdversary(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("String not a fixed point: %q → %q", canon, got)
		}
	})
}

// FuzzParseTrace hardens the availability-trace decoder: no panics, parsed
// configs validate, String∘Parse is a fixed point, and the resulting
// generator yields probabilities in [0,1] without panicking.
func FuzzParseTrace(f *testing.F) {
	for _, spec := range []string{
		"", "diurnal(0.1,0.6,8)", "flash(0,0.8,2,2)", "markov(0,0.3,0.5)",
		"diurnal(0.1,0.6,0)", "diurnal(0.1,0.6,8,9)", "flash(0,0.8,2)",
		"markov(0,0.3,0)", "markov(2,0.3,0.5)", "diurnal(,,)", "diurnal(1e999,0,1)",
		"flash(0,0.8,-2,2)", "markov(0,0.3,0.5", "diurnal (0.1,0.6,8)",
		"flat(0.3)", "flat(1)", "flat(0.1,2)",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseTrace(spec)
		if err != nil {
			if cfg != nil {
				t.Fatalf("error with non-nil config: %v", cfg)
			}
			return
		}
		if spec == "" {
			if cfg != nil {
				t.Fatal("empty spec must mean no trace")
			}
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("parsed trace fails validation: %v", verr)
		}
		canon := cfg.String()
		again, err := ParseTrace(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("String not a fixed point: %q → %q", canon, got)
		}
		g := cfg.Generator(42)
		for _, round := range []int{0, 1, 7, 4096} {
			for _, client := range []int{0, 3, 255} {
				if p := g.DropProb(round, client); p < 0 || p > 1 {
					t.Fatalf("DropProb(%d,%d) = %g out of [0,1]", round, client, p)
				}
			}
		}
	})
}
