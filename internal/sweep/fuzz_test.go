package sweep

import (
	"fmt"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// FuzzParseGrid hardens the grid decoder against arbitrary JSON: no input
// may panic, and any grid that parses must expand within the cell cap with
// every cell key unique — the invariant the manifest relies on — and every
// cell must pass the check fl.NewSimulator makes, at its scale's sizes.
// Discovered seeds live in testdata/fuzz/FuzzParseGrid.
func FuzzParseGrid(f *testing.F) {
	for _, src := range []string{
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1]}`,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1,2],
		  "aggregators":["mean","trimmed(0.2)","krum(1)"],
		  "adversary":["","sign-flip(3)"],"adversary_frac":[0,0.2],
		  "availability":["","diurnal(0.1,0.6,8)"]}`,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1],
		  "aggregators":["trimmed(.2)","trimmed(0.2)"]}`,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1],
		  "adversary":["ddos"]}`,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1],
		  "availability":["markov(0,0.3,0.5)"],"dropout_rates":[0.2]}`,
		`{"methods":[],"settings":[],"seeds":[]}`,
		`{"unknown_axis":[1]}`,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1]}{"trailing":true}`,
		`[]`, `null`, `{`, ``,
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[1],"quorums":[2],"aggregators":["krum(3)"]}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			if g != nil {
				t.Fatalf("error with non-nil grid: %+v", g)
			}
			return
		}
		cells, err := g.Expand()
		if err != nil {
			// Validate passed but Expand failed: Validate is supposed to be
			// the stricter gate, so this would let a bad grid into a manifest.
			t.Fatalf("validated grid fails to expand: %v", err)
		}
		if len(cells) == 0 || len(cells) > maxCells {
			t.Fatalf("expansion size %d out of (0, %d]", len(cells), maxCells)
		}
		seen := make(map[string]bool, len(cells))
		for _, c := range cells {
			k := c.Key()
			if seen[k] {
				t.Fatalf("duplicate cell key %q", k)
			}
			seen[k] = true
			if err := simulatorCheck(c); err != nil {
				t.Fatalf("validated cell %s fails the simulator's check: %v", k, err)
			}
		}
		// The fingerprint — the manifest's identity — must be derivable from
		// any grid that validates.
		if _, err := g.Fingerprint(); err != nil {
			t.Fatalf("validated grid has no fingerprint: %v", err)
		}
	})
}

// simulatorCheck runs fl's check of a simulator configuration
// (SimConfig.Validate, which fl.NewSimulator runs) on the federation a
// cell describes, at its scale's rounds, clients per round and
// population. It parses the cell's specs itself rather than through the
// code under test: a non-zero dropout is the flat(dropout) trace, and
// refused beside an availability spec.
func simulatorCheck(c Cell) error {
	p, err := experiments.PresetFor(c.Scale)
	if err != nil {
		return err
	}
	cfg := fl.SimConfig{Rounds: p.Rounds, ClientsPerRound: p.ClientsPerRound}
	cfg.Quorum = c.Quorum
	if cfg.Straggler, err = fl.ParseStragglerPolicy(c.Straggler); err != nil {
		return err
	}
	agg, err := fl.ParseAggregator(c.Aggregator)
	if err != nil {
		return err
	}
	if cfg.Adversary, err = fl.ParseAdversary(c.Adversary); err != nil {
		return err
	}
	if cfg.Adversary != nil {
		cfg.Adversary.Frac = c.AdvFrac
	}
	if cfg.Availability, err = fl.ParseTrace(c.Availability); err != nil {
		return err
	}
	if c.Dropout != 0 {
		if cfg.Availability != nil {
			return fmt.Errorf("dropout %g beside availability %s", c.Dropout, cfg.Availability)
		}
		cfg.Availability = &fl.TraceConfig{Kind: fl.TraceFlat, Base: c.Dropout}
	}
	return cfg.Validate(&fl.Method{Aggregator: agg}, p.Clients)
}
