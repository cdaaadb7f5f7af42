package store_test

// SaveHook is the deferring checkpoint hook: the round loop runs its save
// behind the next round. These tests hold the two promises that must
// survive that — a version the store reports is durable, and kill + resume
// is bit-identical wherever the kill lands — and the costs the hand-off was
// built to remove.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/store"
)

// sgdTrainer nudges every element of the global slightly, as a local
// update of real training does.
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

// TestSaveHookReportsOnlyDurableVersions: by the time onSaved fires, a
// second handle on the directory (another process) opens that version; the
// reports come in round order; and Run returning means the last one is in.
func TestSaveHookReportsOnlyDurableVersions(t *testing.T) {
	const rounds = 5
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var saved []int
	cfg := fl.SimConfig{Rounds: rounds, ClientsPerRound: 4, Seed: 77, Parallelism: 2}
	cfg.OnCheckpoint = st.SaveHook(store.Meta{Seed: cfg.Seed, Runtime: "simulator"},
		func(v int, state *fl.SimState) {
			snap, err := other.Open(v)
			if err != nil {
				t.Errorf("onSaved(v%d) before the version is readable: %v", v, err)
				return
			}
			if snap.State.Round != state.Round || !reflect.DeepEqual(snap.State.History, state.History) {
				t.Errorf("v%d holds round %d, reported for round %d", v, snap.State.Round, state.Round)
			}
			mu.Lock()
			saved = append(saved, state.Round)
			mu.Unlock()
		})
	sim, err := fl.NewSimulator(cfg, sgdMethod(), diskClients(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	global, _, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(saved, want) {
		t.Fatalf("onSaved rounds %v when Run returned, want %v", saved, want)
	}
	snap, v, err := other.Latest()
	if err != nil || v != rounds {
		t.Fatalf("Latest = v%d, %v", v, err)
	}
	for i := range global {
		if math.Float64bits(snap.State.Global[i]) != math.Float64bits(global[i]) {
			t.Fatalf("final checkpoint differs from the returned global at %d", i)
		}
	}
}

// TestSaveHookErrorAbortsRun: a save that fails behind the next round still
// fails the run, under the round it was saving.
func TestSaveHookErrorAbortsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 77}
	cfg.OnCheckpoint = st.SaveHook(store.Meta{Seed: cfg.Seed}, nil)
	// The directory disappears under the store after the first round.
	cfg.OnRound = func(s fl.RoundStats) {
		if s.Round == 1 {
			if err := os.RemoveAll(dir); err != nil {
				t.Error(err)
			}
		}
	}
	sim, err := fl.NewSimulator(cfg, sgdMethod(), diskClients(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sim.Run(context.Background())
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want the store's create error", err)
	}
}

// TestKillAtEveryBoundaryResumesBitIdentical: cancel the run at each round
// boundary in turn and resume from whatever the store then holds — the
// version Run waited for, and the one before it (a kill -9 can lose exactly
// the version in flight). Every continuation ends bit-identical to the run
// that was never interrupted.
func TestKillAtEveryBoundaryResumesBitIdentical(t *testing.T) {
	const total = 6
	clients := diskClients(t, 7)
	cfg := fl.SimConfig{Rounds: total, ClientsPerRound: 4, Seed: 4321,
		Federation: fl.Federation{Quorum: 2, Availability: &fl.TraceConfig{Kind: fl.TraceFlat, Base: 0.3}}}
	ref, err := fl.NewSimulator(cfg, sgdMethod(), clients)
	if err != nil {
		t.Fatal(err)
	}
	refGlobal, refHistory, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fp := store.Fingerprint("sim", "kill", "4321")
	resume := func(t *testing.T, st *store.Store, wantRound int) {
		t.Helper()
		snap, _, err := st.Resume(fp)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State.Round != wantRound {
			t.Fatalf("store holds round %d, want %d", snap.State.Round, wantRound)
		}
		cfgB := cfg
		cfgB.ResumeFrom = &snap.State
		sim, err := fl.NewSimulator(cfgB, sgdMethod(), clients)
		if err != nil {
			t.Fatal(err)
		}
		global, history, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := range refGlobal {
			if math.Float64bits(global[i]) != math.Float64bits(refGlobal[i]) {
				t.Fatalf("resumed from round %d: global[%d] differs", wantRound, i)
			}
		}
		if !reflect.DeepEqual(history, refHistory) {
			t.Fatalf("resumed from round %d: history differs", wantRound)
		}
	}
	for kill := 0; kill < total-1; kill++ {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cfgA := cfg
		cfgA.OnCheckpoint = st.SaveHook(store.Meta{Seed: cfg.Seed, Fingerprint: fp, Runtime: "simulator"}, nil)
		cfgA.OnRound = func(s fl.RoundStats) {
			if s.Round == kill {
				cancel()
			}
		}
		sim, err := fl.NewSimulator(cfgA, sgdMethod(), clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("kill at boundary %d: err = %v", kill, err)
		}
		cancel()
		// Run returning means round kill's checkpoint, accepted before the
		// cancel, is on disk.
		fresh, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		resume(t, fresh, kill+1)
		if kill == 0 {
			continue
		}
		// A kill -9 instead of a cancel could have lost that version.
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.calibre", kill+1))); err != nil {
			t.Fatal(err)
		}
		resume(t, fresh, kill)
	}
}

// TestSaveHookSteadyStateAllocatesNoVector: once the store's buffer is
// warm, a save through the hook allocates less than half a vector — no
// clone of the state, no fresh encode buffer, no copy of the global.
func TestSaveHookSteadyStateAllocatesNoVector(t *testing.T) {
	const n = 1 << 16 // 512 KiB of parameters
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hook := st.SaveHook(store.Meta{Seed: 1, Runtime: "simulator"}, nil)
	state := &fl.SimState{}
	var ms runtime.MemStats
	var steady uint64
	for r := 1; r <= 6; r++ {
		// Each round's global is its own vector, as the aggregators make it.
		global := make([]float64, n)
		for i := range global {
			global[i] = 1 + float64(i)*1e-6 + float64(r)*1e-9
		}
		state.Round, state.Global = r, global
		state.History = append(state.History, fl.RoundStats{Round: r - 1, Participants: []int{0, 1}})
		state.EligibleCounts = append(state.EligibleCounts, 2)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := hook(state); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if r > 2 {
			steady = max(steady, ms.TotalAlloc-before)
		}
	}
	if steady >= 8*n/2 {
		t.Fatalf("a steady-state save allocated %d B, half a vector is %d B", steady, 8*n/2)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Err != nil || e.Params != n {
			t.Fatalf("v%d: %d params, %v", e.Version, e.Params, e.Err)
		}
	}
}
