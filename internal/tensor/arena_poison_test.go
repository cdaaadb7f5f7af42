package tensor_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// The tests below pin where Arena.GetUninit may be used: every trainer
// steps on an arena (there is no arena-off switch to compare against), so
// each workload runs once as it is and once with every recycled
// uninitialised buffer poisoned with NaN, and must end on the same bits. A
// consumer that reads an element it did not write first (or writes only part
// of its buffer — LinearAct's ReLU gradient writes the masked-out elements
// too, as +0, which is what lets it borrow uninitialised) would turn the
// poison into NaN parameters here.
// What those bits are is the golden ledger's business (internal/baselines).

func sameVector(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values as is, %d under the poison", what, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %v as is, %v on a poisoned arena", what, i, want[i], got[i])
		}
	}
}

// TestPoisonedUninitTrainBitIdentical is a local SSL update per method. The
// roster covers the cross-step escape paths — MoCo's key queue, BYOL's
// momentum target, SwAV's prototype params — that must deep-copy out of the
// tape's buffers before Reset.
func TestPoisonedUninitTrainBitIdentical(t *testing.T) {
	for _, method := range []string{"simclr", "mocov2", "byol", "swav"} {
		t.Run(method, func(t *testing.T) {
			run := func() []float64 {
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
				cfg.Epochs, cfg.BatchSize = 2, 4
				loss, err := ssl.Train(rand.New(rand.NewSource(62)), tr, batch, cfg, nil)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				if tr.Arena().Stats().Hits == 0 {
					t.Fatal("the arena never recycled a buffer: the poison was not exercised")
				}
				return append(nn.Flatten(tr), loss)
			}
			want := run()
			tensor.PoisonUninit(t)
			sameVector(t, "parameters and loss", want, run())
		})
	}
}

// TestPoisonedUninitFederationBitIdentical runs a three-round calibre-simclr
// federation (prototype regulariser, divergence and all); the final global
// vectors must be the same bits.
func TestPoisonedUninitFederationBitIdentical(t *testing.T) {
	run := func() []float64 {
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
	want := run()
	tensor.PoisonUninit(t)
	sameVector(t, "final global", want, run())
}

// TestPoisonedUninitSupervisedBitIdentical is the supervised leg: the
// baselines train on a per-model arena and the probe on a call-local one;
// three rounds and the personalization stage.
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
