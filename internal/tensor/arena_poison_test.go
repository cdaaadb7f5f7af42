package tensor_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/core"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// The tests below pin where Arena.GetUninit may be used: with every recycled
// uninitialised buffer poisoned with NaN, training on the arena must end on
// the bits of training without it. A consumer that reads an element it did
// not write first (or writes only part of its buffer, as LinearAct's ReLU
// gradient does — which is why that one keeps the zeroed alloc) would turn
// the poison into NaN parameters here.

func sameVector(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values without the arena, %d with it", what, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %v without the arena, %v on a poisoned arena", what, i, want[i], got[i])
		}
	}
}

// TestPoisonedUninitTrainBitIdentical is ssl's TestTrainArenaBitIdentical
// under the poison: a local SSL update per method, arena-off against
// arena-on.
func TestPoisonedUninitTrainBitIdentical(t *testing.T) {
	tensor.PoisonUninit(t)
	for _, method := range []string{"simclr", "mocov2", "byol", "swav"} {
		t.Run(method, func(t *testing.T) {
			run := func(noArena bool) (float64, []float64) {
				b := ssl.NewBackbone(rand.New(rand.NewSource(61)), ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8})
				factory, err := ssl.Lookup(method)
				if err != nil {
					t.Fatal(err)
				}
				m, err := factory(rand.New(rand.NewSource(7)), b)
				if err != nil {
					t.Fatal(err)
				}
				tr := &ssl.Trainable{Backbone: b, Method: m}
				rows := tensor.RandN(rand.New(rand.NewSource(63)), 1, 10, 16)
				batch := make([][]float64, rows.Rows())
				for i := range batch {
					batch[i] = rows.Row(i)
				}
				cfg := ssl.DefaultTrainConfig()
				cfg.Epochs, cfg.BatchSize, cfg.NoArena = 2, 4, noArena
				loss, err := ssl.Train(rand.New(rand.NewSource(62)), tr, batch, cfg, nil)
				if err != nil {
					t.Fatalf("Train(noArena=%v): %v", noArena, err)
				}
				if !noArena && tr.Arena().Stats().Hits == 0 {
					t.Fatal("the arena never recycled a buffer: the poison was not exercised")
				}
				return loss, nn.Flatten(tr)
			}
			wantLoss, want := run(true)
			gotLoss, got := run(false)
			sameVector(t, "loss", []float64{wantLoss}, []float64{gotLoss})
			sameVector(t, "parameters", want, got)
		})
	}
}

// TestPoisonedUninitFederationBitIdentical runs a three-round calibre-simclr
// federation (prototype regulariser, divergence and all) on poisoned arenas
// and without arenas; the final global vectors must be the same bits.
func TestPoisonedUninitFederationBitIdentical(t *testing.T) {
	tensor.PoisonUninit(t)
	run := func(noArena bool) []float64 {
		setting, ok := experiments.Settings()["cifar10-q(2,500)"]
		if !ok {
			t.Fatal("setting cifar10-q(2,500) missing")
		}
		env, err := experiments.BuildEnvironment(setting, experiments.Scale("smoke"), 42)
		if err != nil {
			t.Fatal(err)
		}
		m, err := experiments.BuildMethod(env, "calibre-simclr")
		if err != nil {
			t.Fatal(err)
		}
		m.Trainer.(*core.SSLTrainer).Cfg.NoArena = noArena
		sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 3, ClientsPerRound: 4, Seed: 42}, m, env.Participants)
		if err != nil {
			t.Fatal(err)
		}
		global, _, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return global
	}
	sameVector(t, "final global", run(true), run(false))
}

// TestPoisonedUninitSupervisedBitIdentical is the supervised leg: the
// baselines always train on a per-model arena and the probe on a call-local
// one (there is no arena-off switch to compare against), so three rounds and
// the personalization stage run once as they are and once under the poison.
// fedavg covers the plain step, ditto the proximal pull (its personal models
// show only in the accuracies), scaffold the control-variate correction.
func TestPoisonedUninitSupervisedBitIdentical(t *testing.T) {
	for _, method := range []string{"fedavg", "ditto", "scaffold"} {
		t.Run(method, func(t *testing.T) {
			run := func() []float64 {
				setting, ok := experiments.Settings()["cifar10-q(2,500)"]
				if !ok {
					t.Fatal("setting cifar10-q(2,500) missing")
				}
				env, err := experiments.BuildEnvironment(setting, experiments.Scale("smoke"), 42)
				if err != nil {
					t.Fatal(err)
				}
				m, err := experiments.BuildMethod(env, method)
				if err != nil {
					t.Fatal(err)
				}
				out, err := experiments.RunBuiltMethodWith(context.Background(), env, m, func(cfg *fl.SimConfig) { cfg.Rounds = 3 })
				if err != nil {
					t.Fatal(err)
				}
				return append(append([]float64{}, out.Global...), out.Participants.Accs...)
			}
			want := run()
			tensor.PoisonUninit(t)
			sameVector(t, "final global and accuracies", want, run())
		})
	}
}
