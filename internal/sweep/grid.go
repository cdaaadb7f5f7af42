package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"calibre/internal/baselines"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/store"
)

// maxCells bounds a grid expansion: a sweep far beyond this is a typo
// (e.g. a pasted seed list), not a workload, and would silently queue
// days of work.
const maxCells = 4096

// Grid is the declarative scenario spec: every axis is a list, and the
// sweep runs the full cross product. Zero-valued optional axes default to
// a single neutral value (no quorum, no dropout, requeue), so
// the minimal grid is methods × settings × seeds. Grids load from JSON
// via LoadGrid/ParseGrid or are built directly in Go.
type Grid struct {
	// Name labels the sweep in reports; it does not enter the
	// fingerprint, so renaming a sweep does not orphan its manifest.
	Name string `json:"name,omitempty"`
	// Methods are method names as every command takes them: registry
	// names and the calibre-<ssl> variants ("calibre-simclr[ln]").
	Methods []string `json:"methods"`
	// Settings are experiment setting names (dataset + partition), e.g.
	// "cifar10-q(2,500)" or "cifar10-d(0.3,600)".
	Settings []string `json:"settings"`
	// Scales are experiment scale presets; empty defaults to ["smoke"].
	Scales []experiments.Scale `json:"scales,omitempty"`
	// Seeds are replicate indices. The actual RNG seed of a cell is a
	// hash of (setting, scale, seed), not the raw value — see Cell.EnvSeed.
	Seeds []int64 `json:"seeds"`
	// Quorums are K-of-N aggregation floors; empty defaults to [0].
	Quorums []int `json:"quorums,omitempty"`
	// DropoutRates are per-round client dropout probabilities in [0,1);
	// empty defaults to [0].
	DropoutRates []float64 `json:"dropout_rates,omitempty"`
	// Stragglers are straggler policies ("requeue" or "drop"; "" is
	// requeue, and canonicalizes to it); empty defaults to ["requeue"].
	Stragglers []string `json:"stragglers,omitempty"`
	// Aggregators are aggregator override specs (fl.ParseAggregator:
	// "mean", "median", "trimmed(0.2)", "krum(1)") replacing each method's
	// own aggregator; empty defaults to ["mean"], which — like the spec
	// "mean" itself — leaves each method's own aggregator in place. Specs
	// are canonicalized, so "trimmed(.2)" and "trimmed(0.2)" are the same
	// axis value.
	Aggregators []string `json:"aggregators,omitempty"`
	// Adversaries are attack specs (fl.ParseAdversary: "sign-flip",
	// "noise(0.5)", "collude", "label-flip"; "" means honest); empty
	// defaults to [""].
	Adversaries []string `json:"adversary,omitempty"`
	// AdversaryFracs are compromised-population fractions in [0,1]; empty
	// defaults to [0]. Cells where either the adversary spec is "" or the
	// fraction is 0 collapse to the single honest cell.
	AdversaryFracs []float64 `json:"adversary_frac,omitempty"`
	// Availability are availability-trace specs (fl.ParseTrace:
	// "diurnal(0.1,0.6,8)", "flash(0,0.8,2,2)", "markov(0,0.3,0.5)"; ""
	// means flat DropoutRates govern); empty defaults to [""]. A grid
	// mixing non-"" availability with non-zero dropout_rates is rejected —
	// the two churn models are mutually exclusive.
	Availability []string `json:"availability,omitempty"`
	// Baseline, when set, must be one of Methods; the report computes
	// every method's variance reduction against it.
	Baseline string `json:"baseline,omitempty"`
}

// Cell is one fully specified scenario: a single (method, environment,
// federation-knob) combination the scheduler runs as one unit. Its Seed
// is the replicate index; the world is generated from Cell.EnvSeed.
type Cell = experiments.Scenario

// normalized returns a copy with optional axes defaulted.
func (g *Grid) normalized() Grid {
	out := *g
	if len(out.Scales) == 0 {
		out.Scales = []experiments.Scale{experiments.ScaleSmoke}
	}
	if len(out.Quorums) == 0 {
		out.Quorums = []int{0}
	}
	if len(out.DropoutRates) == 0 {
		out.DropoutRates = []float64{0}
	}
	if len(out.Stragglers) == 0 {
		out.Stragglers = []string{fl.StragglerRequeue.String()}
	}
	if len(out.Aggregators) == 0 {
		out.Aggregators = []string{"mean"}
	}
	if len(out.Adversaries) == 0 {
		out.Adversaries = []string{""}
	}
	if len(out.AdversaryFracs) == 0 {
		out.AdversaryFracs = []float64{0}
	}
	if len(out.Availability) == 0 {
		out.Availability = []string{""}
	}
	return out
}

// canonical returns the normalized grid with its spec axes — stragglers,
// aggregators, adversaries, availability — parsed and re-rendered by
// their canonical String, so axis values that spell the same
// configuration differently collapse before duplicate detection and key
// derivation.
func (g *Grid) canonical() (n Grid, err error) {
	n = g.normalized()
	if n.Stragglers, err = canonicalSpecs("stragglers", n.Stragglers, fl.ParseStragglerPolicy); err != nil {
		return n, err
	}
	if n.Aggregators, err = canonicalSpecs("aggregators", n.Aggregators, fl.ParseAggregator); err != nil {
		return n, err
	}
	if n.Adversaries, err = canonicalSpecs("adversary", n.Adversaries, fl.ParseAdversary); err != nil {
		return n, err
	}
	n.Availability, err = canonicalSpecs("availability", n.Availability, fl.ParseTrace)
	return n, err
}

func canonicalSpecs[T any](axis string, specs []string, parse func(string) (T, error)) ([]string, error) {
	out := make([]string, len(specs))
	for i, s := range specs {
		v, err := parse(s)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", axis, err)
		}
		out[i] = fmt.Sprint(v)
	}
	return out, nil
}

// Validate checks every axis against the registries and presets, so a
// bad grid fails at plan time instead of n cells into a sweep.
func (g *Grid) Validate() error {
	n, err := g.canonical()
	if err != nil {
		return err
	}
	if len(n.Methods) == 0 {
		return fmt.Errorf("sweep: grid has no methods")
	}
	if len(n.Settings) == 0 {
		return fmt.Errorf("sweep: grid has no settings")
	}
	if len(n.Seeds) == 0 {
		return fmt.Errorf("sweep: grid has no seeds")
	}
	for _, m := range n.Methods {
		if _, _, err := baselines.Resolve(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if n.Baseline != "" {
		found := false
		for _, m := range n.Methods {
			found = found || m == n.Baseline
		}
		if !found {
			return fmt.Errorf("sweep: baseline %q is not one of the grid's methods", n.Baseline)
		}
	}
	settings := experiments.Settings()
	for _, s := range n.Settings {
		if _, ok := settings[s]; !ok {
			return fmt.Errorf("sweep: unknown setting %q (have %v)", s, experiments.SettingNames())
		}
	}
	minPerRound, minClients := -1, -1
	for _, sc := range n.Scales {
		preset, err := experiments.PresetFor(sc)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if minPerRound < 0 || preset.ClientsPerRound < minPerRound {
			minPerRound = preset.ClientsPerRound
		}
		if minClients < 0 || preset.Clients < minClients {
			minClients = preset.Clients
		}
	}
	// Krum needs F+3 updates per round so at least one scoreable
	// neighborhood exists; catch impossible pairings at plan time.
	for _, spec := range n.Aggregators {
		a, _ := fl.ParseAggregator(spec)
		if k, ok := a.(fl.Krum); ok && minPerRound < k.F+3 {
			return fmt.Errorf("sweep: aggregator %s needs ≥ %d clients per round, smallest scale samples %d", spec, k.F+3, minPerRound)
		}
	}
	for _, f := range n.AdversaryFracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("sweep: adversary_frac must be in [0,1], got %g", f)
		}
	}
	for _, a := range n.Availability {
		if a == "" {
			continue
		}
		for _, d := range n.DropoutRates {
			if d > 0 {
				return fmt.Errorf("sweep: availability traces and non-zero dropout_rates are mutually exclusive")
			}
		}
	}
	// Duplicate axis entries would expand into cells with identical keys
	// that each get scheduled (and then collide in the manifest), so every
	// axis rejects them.
	for _, axis := range []struct {
		name   string
		values []string
	}{
		{"methods", n.Methods},
		{"settings", n.Settings},
		{"stragglers", n.Stragglers},
		{"scales", asStrings(n.Scales)},
		{"quorums", asStrings(n.Quorums)},
		{"dropout_rates", asStrings(n.DropoutRates)},
		{"seeds", asStrings(n.Seeds)},
		{"aggregators", n.Aggregators},
		{"adversary", n.Adversaries},
		{"adversary_frac", asStrings(n.AdversaryFracs)},
		{"availability", n.Availability},
	} {
		if dup := firstDuplicate(axis.values); dup != "" {
			return fmt.Errorf("sweep: duplicate %s entry %v", axis.name, dup)
		}
	}
	for _, q := range n.Quorums {
		if q < 0 {
			return fmt.Errorf("sweep: quorum must be ≥0, got %d", q)
		}
		if q > minPerRound || q > minClients {
			return fmt.Errorf("sweep: quorum %d exceeds the smallest scale's clients-per-round (%d) or population (%d)", q, minPerRound, minClients)
		}
	}
	for _, d := range n.DropoutRates {
		if d < 0 || d >= 1 {
			return fmt.Errorf("sweep: dropout rate must be in [0,1), got %g", d)
		}
	}
	total := len(n.Methods) * len(n.Settings) * len(n.Scales) * len(n.Seeds) *
		len(n.Quorums) * len(n.DropoutRates) * len(n.Stragglers) *
		len(n.Aggregators) * len(n.Adversaries) * len(n.AdversaryFracs) * len(n.Availability)
	if total > maxCells {
		return fmt.Errorf("sweep: grid expands to %d cells, above the %d-cell cap", total, maxCells)
	}
	return nil
}

// Expand validates the grid and returns its cells in canonical axis order
// (method, setting, scale, seed, quorum, dropout, straggler,
// aggregator, adversary, adversary-frac, availability — outermost first).
// An inert adversary pairing (empty spec or zero fraction) canonicalizes
// to the honest cell, and the resulting duplicates collapse, so the
// expansion is a pure, duplicate-free function of the grid.
func (g *Grid) Expand() ([]Cell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n, err := g.canonical()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	seen := make(map[string]bool)
	for _, m := range n.Methods {
		for _, s := range n.Settings {
			for _, sc := range n.Scales {
				for _, seed := range n.Seeds {
					for _, q := range n.Quorums {
						for _, d := range n.DropoutRates {
							for _, st := range n.Stragglers {
								for _, agg := range n.Aggregators {
									for _, adv := range n.Adversaries {
										for _, frac := range n.AdversaryFracs {
											for _, avail := range n.Availability {
												c := Cell{
													Method: m, Setting: s, Scale: sc, Seed: seed,
													Quorum: q, Dropout: d, Straggler: st,
													Aggregator: agg, Adversary: adv, AdvFrac: frac,
													Availability: avail,
												}
												if c.Adversary == "" || c.AdvFrac == 0 {
													c.Adversary, c.AdvFrac = "", 0
												}
												if seen[c.Key()] {
													continue
												}
												seen[c.Key()] = true
												cells = append(cells, c)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// Fingerprint digests the expanded cell keys — the grid's full semantic
// identity. Manifests record it; resuming under a changed grid fails with
// ErrManifestMismatch. Name and Baseline are cosmetic/report-only and
// deliberately excluded.
func (g *Grid) Fingerprint() (string, error) {
	cells, err := g.Expand()
	if err != nil {
		return "", err
	}
	keys := make([]string, 0, len(cells)+1)
	keys = append(keys, "sweep-grid")
	for _, c := range cells {
		keys = append(keys, c.Key())
	}
	return store.Fingerprint(keys...), nil
}

// ParseGrid decodes a grid from JSON, rejecting unknown fields and
// trailing data so a typo'd axis name or a botched merge of two grid
// objects cannot silently shrink a sweep.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: parse grid: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: parse grid: trailing data after the grid object")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGrid reads and parses a grid JSON file.
func LoadGrid(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: read grid: %w", err)
	}
	g, err := ParseGrid(data)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return g, nil
}

func firstDuplicate(values []string) string {
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			return v
		}
		seen[v] = true
	}
	return ""
}

// asStrings renders an axis's values canonically for duplicate detection.
func asStrings[T any](values []T) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprint(v)
	}
	return out
}
