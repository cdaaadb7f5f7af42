package store_test

// Tests for incremental (delta-encoded) snapshots: chain-resolved reads
// are bit-identical to what was saved, broken chains fall back to older
// full snapshots, the chain length is bounded by periodic full saves, and
// the end-to-end kill/resume bit-identity gate holds with incremental
// encoding enabled.

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/store"
)

// driftSnap builds a snapshot r rounds in, with a global vector drifting
// slightly (plus adversarial bit patterns) from base.
func driftSnap(rng *rand.Rand, base param.Vector, fp string, r int) *store.Snapshot {
	g := base.Clone()
	for i := range g {
		switch i % 50 {
		case 0:
			g[i] = math.Float64frombits(rng.Uint64()) // occasionally arbitrary bits
		default:
			g[i] += 1e-4 * rng.NormFloat64() * float64(r)
		}
	}
	st := fl.SimState{Round: r, Global: g}
	for i := 0; i < r; i++ {
		st.History = append(st.History, fl.RoundStats{Round: i, Participants: []int{i % 3}, MeanLoss: rng.Float64()})
		st.EligibleCounts = append(st.EligibleCounts, 3)
	}
	return &store.Snapshot{
		Meta:  store.Meta{Seed: 9, Fingerprint: fp, Runtime: "simulator"},
		State: st,
	}
}

func TestIncrementalSnapshotsResolveBitIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetIncremental(true)
	rng := rand.New(rand.NewSource(4))
	base := make(param.Vector, 4096)
	for i := range base {
		base[i] = rng.NormFloat64()
	}

	const saves = 12 // crosses the full-snapshot reset at deltaChainLimit
	var want []param.Vector
	cur := base
	for r := 1; r <= saves; r++ {
		snap := driftSnap(rng, cur, "fp", r)
		cur = param.Vector(snap.State.Global)
		want = append(want, cur.Clone())
		if _, err := st.Save(snap); err != nil {
			t.Fatalf("save %d: %v", r, err)
		}
	}

	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != saves {
		t.Fatalf("%d entries, want %d", len(entries), saves)
	}
	fulls, incs := 0, 0
	var fullSize, incSize int64
	for i, e := range entries {
		if e.Corrupt {
			t.Fatalf("v%d listed corrupt", e.Version)
		}
		if e.Incremental {
			incs++
			incSize += e.Size
			if e.RefVersion != e.Version-1 {
				t.Fatalf("v%d references v%d, want v%d", e.Version, e.RefVersion, e.Version-1)
			}
			if e.ChainDepth < 1 {
				t.Fatalf("incremental v%d has chain depth %d", e.Version, e.ChainDepth)
			}
		} else {
			fulls++
			fullSize += e.Size
			if e.ChainDepth != 0 {
				t.Fatalf("full v%d has chain depth %d", e.Version, e.ChainDepth)
			}
		}
		if e.Round != i+1 || e.Params != len(base) {
			t.Fatalf("v%d listed round %d params %d", e.Version, e.Round, e.Params)
		}
	}
	// 12 saves with a chain limit of 8: v1 full, v2..v9 incremental, v10
	// full (chain reset), v11..v12 incremental.
	if fulls != 2 || incs != saves-2 {
		t.Fatalf("%d full / %d incremental snapshots, want 2/%d", fulls, incs, saves-2)
	}
	if incSize/int64(incs) >= fullSize/int64(fulls) {
		t.Fatalf("mean incremental size %d not below mean full size %d", incSize/int64(incs), fullSize/int64(fulls))
	}

	for r := 1; r <= saves; r++ {
		snap, err := st.Open(r)
		if err != nil {
			t.Fatalf("open v%d: %v", r, err)
		}
		g := param.Vector(snap.State.Global)
		if len(g) != len(want[r-1]) {
			t.Fatalf("v%d resolved %d params", r, len(g))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(want[r-1][i]) {
				t.Fatalf("v%d element %d not bit-identical after chain resolution", r, i)
			}
		}
		if len(snap.State.History) != r {
			t.Fatalf("v%d history has %d rounds", r, len(snap.State.History))
		}
	}

	// A fresh handle (cold cache, like a restarted process) keeps chaining
	// off the on-disk state rather than writing a full snapshot.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.SetIncremental(true)
	snap := driftSnap(rng, cur, "fp", saves+1)
	v, err := st2.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	entries, err = st2.List()
	if err != nil {
		t.Fatal(err)
	}
	last := entries[len(entries)-1]
	if last.Version != v || !last.Incremental || last.RefVersion != saves {
		t.Fatalf("cold-cache save produced %+v, want incremental referencing v%d", last, saves)
	}
}

func TestIncrementalBrokenChainFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetIncremental(true)
	rng := rand.New(rand.NewSource(8))
	base := make(param.Vector, 256)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	cur := base
	for r := 1; r <= 4; r++ { // v1 full, v2..v4 incremental
		snap := driftSnap(rng, cur, "fp", r)
		cur = param.Vector(snap.State.Global)
		if _, err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the middle link v3: v4 becomes unresolvable, and Latest must
	// fall back to v2 (still resolvable via v1).
	path := filepath.Join(dir, "ckpt-00000003.calibre")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Open(4); err == nil {
		t.Fatal("v4 resolved through a corrupt link")
	}
	snap, v, err := st.Latest()
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if v != 2 || snap.State.Round != 2 {
		t.Fatalf("Latest fell back to v%d (round %d), want v2", v, snap.State.Round)
	}
}

// sgdTrainer nudges every element slightly — the compressible payload
// shape real training produces (diskMethod's driftTrainer moves its tiny
// vector so much that Save's size-parity fallback correctly keeps every
// snapshot full).
type sgdTrainer struct{}

func (sgdTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := global.Clone()
	for i := range params {
		params[i] += 1e-4 * rng.NormFloat64()
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(), TrainLoss: rng.Float64()}, nil
}

func sgdMethod() *fl.Method {
	return &fl.Method{
		Name:         "sgd-drift",
		Trainer:      sgdTrainer{},
		Aggregator:   fl.WeightedAverage{},
		Personalizer: noopPersonalizer{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			out := make(param.Vector, 512)
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			return out, nil
		},
	}
}

// TestSimulatorResumeIncrementalBitIdentical is the end-to-end durability
// gate with incremental snapshots switched on: resuming from a
// delta-encoded chain finishes bit-identical to an uninterrupted run.
func TestSimulatorResumeIncrementalBitIdentical(t *testing.T) {
	const total, cut = 8, 5 // cut beyond one delta link so resume crosses the chain
	clients := diskClients(t, 7)
	cfg := fl.SimConfig{
		Rounds:          total,
		ClientsPerRound: 4,
		Seed:            4321,
		DropoutRate:     0.3,
		Quorum:          2,
	}

	sim, err := fl.NewSimulator(cfg, sgdMethod(), clients)
	if err != nil {
		t.Fatal(err)
	}
	refGlobal, refHistory, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetIncremental(true)
	fp := store.Fingerprint("sim", "drift", "4321")
	cfgA := cfg
	cfgA.Rounds = cut
	cfgA.CheckpointEvery = 1
	cfgA.OnCheckpoint = st.SaveHook(store.Meta{Seed: cfg.Seed, Fingerprint: fp, Runtime: "simulator"}, nil)
	simA, err := fl.NewSimulator(cfgA, sgdMethod(), clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := simA.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	incs := 0
	for _, e := range entries {
		if e.Incremental {
			incs++
		}
	}
	if incs != cut-1 {
		t.Fatalf("%d incremental snapshots of %d, want %d", incs, len(entries), cut-1)
	}

	snap, version, err := st.Resume(fp)
	if err != nil {
		t.Fatal(err)
	}
	if version != cut || snap.State.Round != cut {
		t.Fatalf("resumed v%d at round %d, want v%d/%d", version, snap.State.Round, cut, cut)
	}
	cfgB := cfg
	cfgB.ResumeFrom = &snap.State
	simB, err := fl.NewSimulator(cfgB, sgdMethod(), diskClients(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	gotGlobal, gotHistory, err := simB.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range refGlobal {
		if math.Float64bits(gotGlobal[i]) != math.Float64bits(refGlobal[i]) {
			t.Fatalf("global[%d] differs after incremental resume", i)
		}
	}
	if !reflect.DeepEqual(gotHistory, refHistory) {
		t.Fatalf("history differs after incremental resume:\n%+v\nvs\n%+v", gotHistory, refHistory)
	}
}
