package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

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
// via LoadGrid/ParseGrid or are built directly in Go. The ranges the
// knob axes below name are fl's rules, which Validate asks of each cell.
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
	// DropoutRates are per-round client dropout probabilities in [0,1),
	// each run as the flat(p) availability trace; empty defaults to [0].
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
	// means DropoutRates govern); empty defaults to [""]. A grid mixing
	// non-"" availability with non-zero dropout_rates is rejected — a
	// dropout rate is itself a trace, flat(p).
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
	out.Scales = orDefault(out.Scales, experiments.ScaleSmoke)
	out.Quorums = orDefault(out.Quorums, 0)
	out.DropoutRates = orDefault(out.DropoutRates, 0)
	out.Stragglers = orDefault(out.Stragglers, fl.StragglerRequeue.String())
	out.Aggregators = orDefault(out.Aggregators, "mean")
	out.Adversaries = orDefault(out.Adversaries, "")
	out.AdversaryFracs = orDefault(out.AdversaryFracs, 0)
	out.Availability = orDefault(out.Availability, "")
	return out
}

func orDefault[T any](values []T, def T) []T {
	if len(values) == 0 {
		return []T{def}
	}
	return values
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

// Validate checks the grid's own rules — non-empty axes, no axis entry
// twice once spelled canonically, a baseline among the methods, the cell
// cap — and then every cell of the raw cross product, before inert
// adversary pairings collapse, through Scenario.Validate: the method,
// setting and scale must be known and the federation one fl accepts at
// the scale's sizes. So a bad grid fails at plan time instead of n cells
// into a sweep, on the cells fl.NewSimulator would refuse.
func (g *Grid) Validate() error {
	_, err := g.product()
	return err
}

// product validates the grid and returns its raw cross product in
// canonical axis order.
func (g *Grid) product() ([]Cell, error) {
	n, err := g.canonical()
	if err != nil {
		return nil, err
	}
	if len(n.Methods) == 0 {
		return nil, fmt.Errorf("sweep: grid has no methods")
	}
	if len(n.Settings) == 0 {
		return nil, fmt.Errorf("sweep: grid has no settings")
	}
	if len(n.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: grid has no seeds")
	}
	// Duplicate axis entries would expand into cells with identical keys
	// that each get scheduled (and then collide in the manifest), so every
	// axis rejects them. The axes' sizes multiply to the cell count, kept
	// in floating point, which cannot wrap around to a small count.
	total := 1.0
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
			return nil, fmt.Errorf("sweep: duplicate %s entry %v", axis.name, dup)
		}
		total *= float64(len(axis.values))
	}
	if total > maxCells {
		return nil, fmt.Errorf("sweep: grid expands to %.0f cells, above the %d-cell cap", total, maxCells)
	}
	cells := []Cell{{}}
	cells = across(cells, n.Methods, func(c *Cell, v string) { c.Method = v })
	cells = across(cells, n.Settings, func(c *Cell, v string) { c.Setting = v })
	cells = across(cells, n.Scales, func(c *Cell, v experiments.Scale) { c.Scale = v })
	cells = across(cells, n.Seeds, func(c *Cell, v int64) { c.Seed = v })
	cells = across(cells, n.Quorums, func(c *Cell, v int) { c.Quorum = v })
	cells = across(cells, n.DropoutRates, func(c *Cell, v float64) { c.Dropout = v })
	cells = across(cells, n.Stragglers, func(c *Cell, v string) { c.Straggler = v })
	cells = across(cells, n.Aggregators, func(c *Cell, v string) { c.Aggregator = v })
	cells = across(cells, n.Adversaries, func(c *Cell, v string) { c.Adversary = v })
	cells = across(cells, n.AdversaryFracs, func(c *Cell, v float64) { c.AdvFrac = v })
	cells = across(cells, n.Availability, func(c *Cell, v string) { c.Availability = v })
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	if n.Baseline != "" && !slices.Contains(n.Methods, n.Baseline) {
		return nil, fmt.Errorf("sweep: baseline %q is not one of the grid's methods", n.Baseline)
	}
	return cells, nil
}

// across extends the product by one inner axis: each cell so far, once
// per value, in order.
func across[T any](cells []Cell, values []T, set func(*Cell, T)) []Cell {
	out := make([]Cell, 0, len(cells)*len(values))
	for _, c := range cells {
		for _, v := range values {
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// Expand validates the grid and returns its cells in canonical axis order
// (method, setting, scale, seed, quorum, dropout, straggler,
// aggregator, adversary, adversary-frac, availability — outermost first).
// An inert adversary pairing (empty spec or zero fraction) canonicalizes
// to the honest cell, and the resulting duplicates collapse, so the
// expansion is a pure, duplicate-free function of the grid.
func (g *Grid) Expand() ([]Cell, error) {
	product, err := g.product()
	if err != nil {
		return nil, err
	}
	var cells []Cell
	seen := make(map[string]bool)
	for _, c := range product {
		if c.Adversary == "" || c.AdvFrac == 0 {
			c.Adversary, c.AdvFrac = "", 0
		}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			cells = append(cells, c)
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
	return fingerprint(cells), nil
}

// fingerprint digests an expansion's cell keys.
func fingerprint(cells []Cell) string {
	keys := make([]string, 0, len(cells)+1)
	keys = append(keys, "sweep-grid")
	for _, c := range cells {
		keys = append(keys, c.Key())
	}
	return store.Fingerprint(keys...)
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
