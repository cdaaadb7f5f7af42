package sweep

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// testGrid is the acceptance grid: 3 methods × 2 partitions × 2 seeds =
// 12 smoke cells, cheap supervised methods so the whole suite stays fast.
func testGrid() *Grid {
	return &Grid{
		Name:     "acceptance",
		Methods:  []string{"fedavg", "fedavg-ft", "perfedavg"},
		Settings: []string{"cifar10-q(2,500)", "cifar10-d(0.3,600)"},
		Seeds:    []int64{1, 2},
		Baseline: "fedavg-ft",
	}
}

func TestExpandShapeAndOrder(t *testing.T) {
	g := testGrid()
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(cells) != 12 {
		t.Fatalf("12 cells expected, got %d", len(cells))
	}
	// Deterministic: two expansions are identical.
	again, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
	// Canonical axis order: method outermost.
	if cells[0].Method != "fedavg" || cells[len(cells)-1].Method != "perfedavg" {
		t.Fatalf("axis order broken: first %s, last %s", cells[0].Method, cells[len(cells)-1].Method)
	}
	// Defaults filled.
	if cells[0].Scale != experiments.ScaleSmoke || cells[0].Straggler != "requeue" {
		t.Fatalf("defaults not applied: %+v", cells[0])
	}
	// Keys unique.
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %s", c.Key())
		}
		seen[c.Key()] = true
	}
}

// TestEnvSeedSharedAcrossMethods pins the apples-to-apples guarantee:
// cells that differ only in method (or federation knobs) face the same
// federation world, while any environment axis change moves the seed.
func TestEnvSeedSharedAcrossMethods(t *testing.T) {
	base := Cell{Method: "fedavg", Setting: "cifar10-q(2,500)", Scale: experiments.ScaleSmoke, Seed: 1, Straggler: "requeue"}
	sameWorld := base
	sameWorld.Method = "calibre-simclr"
	sameWorld.Quorum = 2
	if base.EnvSeed() != sameWorld.EnvSeed() {
		t.Fatal("method/knob change moved the environment seed")
	}
	for _, mut := range []func(*Cell){
		func(c *Cell) { c.Seed = 2 },
		func(c *Cell) { c.Setting = "cifar10-d(0.3,600)" },
		func(c *Cell) { c.Scale = experiments.ScaleCI },
	} {
		other := base
		mut(&other)
		if base.EnvSeed() == other.EnvSeed() {
			t.Fatalf("environment axis change did not move the seed: %+v", other)
		}
	}
	if base.EnvSeed() < 0 {
		t.Fatal("EnvSeed must be non-negative")
	}
}

func TestGridFingerprint(t *testing.T) {
	g := testGrid()
	fp1, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// Name and baseline are cosmetic: they must not move the fingerprint.
	g2 := testGrid()
	g2.Name = "renamed"
	g2.Baseline = ""
	g2.Methods = []string{"fedavg", "fedavg-ft", "perfedavg"}
	fp2, err := g2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatal("cosmetic fields moved the fingerprint")
	}
	// Any cell change must move it.
	g3 := testGrid()
	g3.Seeds = []int64{1, 3}
	fp3, err := g3.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("seed change did not move the fingerprint")
	}
	// Manifests written by earlier builds record the value those trees
	// computed for this one-cell hostile grid (the last one that still had a
	// delta_updates axis, with the axis left at its default); resuming them
	// needs it unchanged.
	pinned := &Grid{
		Methods: []string{"fedavg-ft"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{7},
		Quorums: []int{2}, Stragglers: []string{"drop"},
		Aggregators: []string{"median"}, Adversaries: []string{"sign-flip(3)"},
		AdversaryFracs: []float64{0.3}, Availability: []string{"diurnal(0.1,0.6,8)"},
	}
	if fp, err := pinned.Fingerprint(); err != nil || fp != "7121c84c3a3a4a63" {
		t.Fatalf("pinned grid fingerprint = %s, %v; want 7121c84c3a3a4a63", fp, err)
	}
}

func TestGridValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Grid)
		want string
	}{
		{"no methods", func(g *Grid) { g.Methods = nil }, "no methods"},
		{"no settings", func(g *Grid) { g.Settings = nil }, "no settings"},
		{"no seeds", func(g *Grid) { g.Seeds = nil }, "no seeds"},
		{"unknown method", func(g *Grid) { g.Methods = []string{"fedmagic"} }, "unknown method"},
		{"unknown setting", func(g *Grid) { g.Settings = []string{"mnist"} }, "cifar10-q(2,500)"},
		{"variant of a pfl method", func(g *Grid) { g.Methods = []string{"pfl-simclr[ln]"} }, "[ln+lp]"},
		{"variant of a supervised method", func(g *Grid) { g.Methods = []string{"fedavg[ln]"} }, "{fixed-k}"},
		{"unknown variant", func(g *Grid) { g.Methods = []string{"calibre-simclr[bogus]"} }, "[base]"},
		{"two variants", func(g *Grid) { g.Methods = []string{"calibre-simclr[ln]{fixed-k}"} }, "{no-warmup}"},
		{"unknown scale", func(g *Grid) { g.Scales = []experiments.Scale{"galactic"} }, "unknown scale"},
		{"dup seeds", func(g *Grid) { g.Seeds = []int64{1, 1} }, "duplicate seed"},
		{"dup methods", func(g *Grid) { g.Methods = []string{"fedavg", "fedavg", "fedavg-ft"} }, "duplicate methods"},
		{"dup scales", func(g *Grid) { g.Scales = []experiments.Scale{"smoke", "smoke"} }, "duplicate scales"},
		{"dup quorums", func(g *Grid) { g.Quorums = []int{2, 2} }, "duplicate quorums"},
		{"dup dropout", func(g *Grid) { g.DropoutRates = []float64{0.1, 0.1} }, "duplicate dropout_rates"},
		{"bad dropout", func(g *Grid) { g.DropoutRates = []float64{1.5} }, "dropout"},
		{"NaN dropout", func(g *Grid) { g.DropoutRates = []float64{math.NaN()} }, "dropout"},
		{"bad adversary frac", func(g *Grid) { g.AdversaryFracs = []float64{1.5} }, "adversary_frac"},
		{"NaN adversary frac", func(g *Grid) { g.AdversaryFracs = []float64{math.NaN()} }, "adversary_frac"},
		{"bad straggler", func(g *Grid) { g.Stragglers = []string{"shrug"} }, "straggler"},
		{"dup stragglers spelled apart", func(g *Grid) { g.Stragglers = []string{"", "requeue"} }, "duplicate stragglers entry requeue"},
		{"dup aggregators spelled apart", func(g *Grid) { g.Aggregators = []string{"mean", ""} }, "duplicate aggregators entry mean"},
		{"quorum too big", func(g *Grid) { g.Quorums = []int{99} }, "quorum"},
		{"negative quorum", func(g *Grid) { g.Quorums = []int{-1} }, "quorum"},
		{"baseline not in methods", func(g *Grid) { g.Baseline = "ditto" }, "baseline"},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mut(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
	// A cell may name a Table I or design-ablation variant.
	g := testGrid()
	g.Methods = append(g.Methods, "calibre-simclr[ln]", "calibre-simclr{fixed-k}")
	if err := g.Validate(); err != nil {
		t.Fatalf("grid of Calibre variants rejected: %v", err)
	}
}

// TestGridAndSimulatorRefuseTheSameCell: a grid asks fl's own rules of
// each cell, so every bad federation knob a one-cell grid refuses at plan
// time is one fl.NewSimulator refuses for the World Build makes of that
// cell — or, for a dropout beside an availability spec, one Build itself
// refuses — and a valid cell passes all three.
func TestGridAndSimulatorRefuseTheSameCell(t *testing.T) {
	base := Cell{Method: "fedavg-ft", Setting: "cifar10-q(2,500)", Scale: experiments.ScaleSmoke, Seed: 1, Straggler: "requeue"}
	env, err := base.Environment()
	if err != nil {
		t.Fatal(err)
	}
	check := func(c Cell) (gridErr, buildErr, simErr error) {
		g := &Grid{Methods: []string{c.Method}, Settings: []string{c.Setting}, Scales: []experiments.Scale{c.Scale},
			Seeds: []int64{c.Seed}, Quorums: []int{c.Quorum}, DropoutRates: []float64{c.Dropout},
			Stragglers: []string{c.Straggler}, Aggregators: []string{c.Aggregator}, Adversaries: []string{c.Adversary},
			AdversaryFracs: []float64{c.AdvFrac}, Availability: []string{c.Availability}}
		w, buildErr := c.BuildOn(env)
		if buildErr != nil {
			return g.Validate(), buildErr, nil
		}
		cfg := fl.SimConfig{Federation: w.Federation, Rounds: env.Preset.Rounds,
			ClientsPerRound: env.Preset.ClientsPerRound, Seed: env.Seed}
		_, simErr = fl.NewSimulator(cfg, w.Method, env.Participants)
		return g.Validate(), nil, simErr
	}
	valid := base
	valid.Quorum, valid.Dropout, valid.Straggler, valid.Aggregator = 2, 0.2, "drop", "krum(0)"
	valid.Adversary, valid.AdvFrac = "sign-flip", 0.25
	if gridErr, buildErr, simErr := check(valid); gridErr != nil || buildErr != nil || simErr != nil {
		t.Fatalf("valid cell refused: grid %v, build %v, simulator %v", gridErr, buildErr, simErr)
	}
	for _, tc := range []struct {
		name  string
		mut   func(*Cell)
		build bool // refused by Build rather than by fl
	}{
		{"negative quorum", func(c *Cell) { c.Quorum = -1 }, false},
		{"quorum above clients per round", func(c *Cell) { c.Quorum = env.Preset.ClientsPerRound + 1 }, false},
		{"dropout 1.5", func(c *Cell) { c.Dropout = 1.5 }, false},
		{"NaN dropout", func(c *Cell) { c.Dropout = math.NaN() }, false},
		{"adversary frac 1.5", func(c *Cell) { c.Adversary, c.AdvFrac = "sign-flip", 1.5 }, false},
		{"NaN adversary frac", func(c *Cell) { c.Adversary, c.AdvFrac = "sign-flip", math.NaN() }, false},
		{"availability with dropout", func(c *Cell) { c.Availability, c.Dropout = "diurnal(0.1,0.6,8)", 0.2 }, true},
		{"krum(f) below f+3 clients per round", func(c *Cell) { c.Aggregator = "krum(1)" }, false},
	} {
		c := base
		tc.mut(&c)
		gridErr, buildErr, simErr := check(c)
		if gridErr == nil || (buildErr != nil) != tc.build || (simErr != nil) == tc.build {
			t.Errorf("%s: grid err %v, build err %v, simulator err %v; want the grid and one of the others to refuse (Build: %t)",
				tc.name, gridErr, buildErr, simErr, tc.build)
		}
	}
}

func TestGridCellCap(t *testing.T) {
	g := testGrid()
	for i := int64(10); i < 2000; i++ {
		g.Seeds = append(g.Seeds, i)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized grid accepted: %v", err)
	}
}

// TestGridCellCapCannotWrap: ten axes of 128 entries make 2^70 cells, a
// count an int product wraps around to 0; the grid must still be refused
// at the cap rather than planned.
func TestGridCellCapCannotWrap(t *testing.T) {
	g := &Grid{}
	for i := 0; i < 128; i++ {
		g.Methods = append(g.Methods, fmt.Sprintf("m%d", i))
		g.Settings = append(g.Settings, fmt.Sprintf("s%d", i))
		g.Scales = append(g.Scales, experiments.Scale(fmt.Sprintf("x%d", i)))
		g.Seeds = append(g.Seeds, int64(i))
		g.Quorums = append(g.Quorums, i)
		g.DropoutRates = append(g.DropoutRates, float64(i)/1000)
		g.Aggregators = append(g.Aggregators, fmt.Sprintf("krum(%d)", i))
		g.Adversaries = append(g.Adversaries, fmt.Sprintf("noise(%d)", i+1))
		g.AdversaryFracs = append(g.AdversaryFracs, float64(i)/1000)
		g.Availability = append(g.Availability, fmt.Sprintf("markov(0,0.3,%g)", float64(i+1)/1000))
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("a 2^70-cell grid: %v, want the cell cap", err)
	}
}

func TestParseGridJSON(t *testing.T) {
	data := []byte(`{
		"name": "quorum-ab",
		"methods": ["fedavg-ft", "calibre-simclr"],
		"settings": ["cifar10-q(2,500)"],
		"seeds": [1, 2],
		"quorums": [0, 2],
		"baseline": "fedavg-ft"
	}`)
	g, err := ParseGrid(data)
	if err != nil {
		t.Fatalf("ParseGrid: %v", err)
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expected 8 cells, got %d", len(cells))
	}
	// Typos in axis names must not silently shrink a sweep.
	if _, err := ParseGrid([]byte(`{"methods":["fedavg"],"settings":["cifar10-q(2,500)"],"seeds":[1],"seedz":[2]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// That includes the update-wire axis grids used to have: there is one
	// uplink form, and a grid that still asks for two says so loudly.
	if _, err := ParseGrid([]byte(`{"methods":["fedavg"],"settings":["cifar10-q(2,500)"],"seeds":[1],"delta_updates":[false]}`)); err == nil || !strings.Contains(err.Error(), "delta_updates") {
		t.Fatalf("a grid with a delta_updates axis: %v, want an unknown-field error naming it", err)
	}
	if _, err := ParseGrid([]byte(`{"methods":[`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// A botched merge of two grid objects must not silently run only the
	// first one.
	two := `{"methods":["fedavg"],"settings":["cifar10-q(2,500)"],"seeds":[1]}` +
		`{"methods":["fedavg-ft"],"settings":["cifar10-q(2,500)"],"seeds":[2]}`
	if _, err := ParseGrid([]byte(two)); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("concatenated grid objects accepted: %v", err)
	}
}
