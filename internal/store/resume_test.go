package store_test

// The end-to-end durability gate for the simulator path: a federation
// checkpointed through a real on-disk Store, with the process state thrown
// away and rebuilt purely from the snapshot file, must finish bit-identical
// to an uninterrupted run. This is the acceptance test the subsystem exists
// for, so it lives next to the store and goes through the full
// encode → fsync → rename → decode path rather than an in-memory sink.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/store"
)

// driftTrainer's update depends on every input that must survive a resume:
// the global vector, the round number and the per-(round, client) RNG.
type driftTrainer struct{}

func (driftTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := make([]float64, len(global))
	for i, v := range global {
		params[i] = v + rng.NormFloat64()*0.1 + float64(round)*0.01
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(), TrainLoss: rng.Float64()}, nil
}

type noopPersonalizer struct{}

func (noopPersonalizer) Personalize(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector) (float64, error) {
	return 0, nil
}

func diskClients(t *testing.T, n int) []*partition.Client {
	t.Helper()
	g, err := data.NewGenerator(data.CIFAR10Spec(), 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	ds := g.GenerateLabeled(rng, 10*n)
	parts, err := partition.IID(rng, ds, n, 20)
	if err != nil {
		t.Fatalf("IID: %v", err)
	}
	return partition.BuildClients(rng, ds, parts, nil)
}

func diskMethod() *fl.Method {
	return &fl.Method{
		Name:         "drift",
		Trainer:      driftTrainer{},
		Aggregator:   fl.WeightedAverage{},
		Personalizer: noopPersonalizer{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			out := make([]float64, 6)
			for i := range out {
				out[i] = rng.NormFloat64()
			}
			return out, nil
		},
	}
}

func TestSimulatorResumeFromDiskBitIdentical(t *testing.T) {
	const total, cut = 8, 3
	clients := diskClients(t, 7)
	cfg := fl.SimConfig{
		Rounds:          total,
		ClientsPerRound: 4,
		Seed:            1234,
		Federation: fl.Federation{Quorum: 2, Straggler: fl.StragglerDrop,
			Availability: &fl.TraceConfig{Kind: fl.TraceFlat, Base: 0.35}},
	}

	// Reference: one uninterrupted run.
	sim, err := fl.NewSimulator(cfg, diskMethod(), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	refGlobal, refHistory, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}

	// Phase 1: "the process that crashes" — run cut rounds, checkpointing
	// every round into a real store.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	fp := store.Fingerprint("sim", "drift", "1234")
	cfgA := cfg
	cfgA.Rounds = cut
	cfgA.CheckpointEvery = 1
	cfgA.OnCheckpoint = func(state *fl.SimState) error {
		_, err := st.Save(&store.Snapshot{
			Meta:  store.Meta{Seed: cfg.Seed, Fingerprint: fp, Runtime: "simulator"},
			State: *state,
		})
		return err
	}
	simA, err := fl.NewSimulator(cfgA, diskMethod(), clients)
	if err != nil {
		t.Fatalf("NewSimulator A: %v", err)
	}
	if _, _, err := simA.Run(context.Background()); err != nil {
		t.Fatalf("phase-1 Run: %v", err)
	}
	versions, err := st.Versions()
	if err != nil || len(versions) != cut {
		t.Fatalf("Versions = %v (%v), want %d snapshots", versions, err, cut)
	}

	// Phase 2: "the restarted process" — everything rebuilt from disk.
	snap, version, err := st.Resume(fp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if version != cut || snap.State.Round != cut {
		t.Fatalf("resumed v%d at round %d, want v%d at round %d", version, snap.State.Round, cut, cut)
	}
	cfgB := cfg
	cfgB.ResumeFrom = &snap.State
	simB, err := fl.NewSimulator(cfgB, diskMethod(), diskClients(t, 7))
	if err != nil {
		t.Fatalf("NewSimulator B: %v", err)
	}
	gotGlobal, gotHistory, err := simB.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}

	for i := range refGlobal {
		if math.Float64bits(gotGlobal[i]) != math.Float64bits(refGlobal[i]) {
			t.Fatalf("global[%d] differs after disk resume: %x vs %x", i, gotGlobal[i], refGlobal[i])
		}
	}
	if !reflect.DeepEqual(gotHistory, refHistory) {
		t.Fatalf("history differs after disk resume:\n%+v\nvs\n%+v", gotHistory, refHistory)
	}
}
