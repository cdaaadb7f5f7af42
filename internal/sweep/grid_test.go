package sweep

import (
	"strings"
	"testing"

	"calibre/internal/experiments"
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
		{"unknown setting", func(g *Grid) { g.Settings = []string{"mnist"} }, "unknown setting"},
		{"unknown scale", func(g *Grid) { g.Scales = []experiments.Scale{"galactic"} }, "unknown scale"},
		{"dup seeds", func(g *Grid) { g.Seeds = []int64{1, 1} }, "duplicate seed"},
		{"dup methods", func(g *Grid) { g.Methods = []string{"fedavg", "fedavg", "fedavg-ft"} }, "duplicate methods"},
		{"dup scales", func(g *Grid) { g.Scales = []experiments.Scale{"smoke", "smoke"} }, "duplicate scales"},
		{"dup quorums", func(g *Grid) { g.Quorums = []int{2, 2} }, "duplicate quorums"},
		{"dup dropout", func(g *Grid) { g.DropoutRates = []float64{0.1, 0.1} }, "duplicate dropout_rates"},
		{"bad dropout", func(g *Grid) { g.DropoutRates = []float64{1.5} }, "dropout"},
		{"bad straggler", func(g *Grid) { g.Stragglers = []string{"shrug"} }, "straggler"},
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
