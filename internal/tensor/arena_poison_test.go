package tensor_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"calibre/internal/data"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/model"
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
		// The trainers' tapes are pooled for the whole process, so a run
		// without the poison recycles what an earlier poisoned run left: a
		// consumer reading before it writes shows there as NaN, on both runs.
		if math.IsNaN(want[i]) {
			t.Fatalf("%s: element %d is NaN as is", what, i)
		}
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %v as is, %v on a poisoned arena", what, i, want[i], got[i])
		}
	}
}

// TestPoisonedUninitTrainBitIdentical is a local SSL update per method, on
// the tape nn's pool lends: one a supervised fedavg update used last, so its
// arena holds buffers another client, model and shape left behind. The
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
				supervisedUpdate(t)
				// The pool is last-in first-out and this package's tests run
				// one at a time: the tape it lends next is the one Train gets.
				tape := nn.BorrowTape()
				before := tape.Arena().Stats()
				tape.Release()
				cfg := ssl.DefaultTrainConfig()
				cfg.Epochs, cfg.BatchSize = 2, 4
				loss, err := ssl.Train(rand.New(rand.NewSource(62)), tr, batch, cfg, nil)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
				if after := tape.Arena().Stats(); after.Hits == before.Hits {
					t.Fatal("the pooled arena never recycled a buffer: the poison was not exercised")
				}
				return append(nn.Flatten(tr), loss)
			}
			want := run()
			tensor.PoisonUninit(t)
			sameVector(t, "parameters and loss", want, run())
		})
	}
}

// supervisedUpdate runs one local fedavg update of a fresh supervised model,
// so the tape nn's pool lends next last served another client, model and
// shape.
func supervisedUpdate(t *testing.T) {
	t.Helper()
	x := tensor.RandN(rand.New(rand.NewSource(64)), 1, 14, 16)
	ds := &data.Dataset{NumClasses: 3, Dim: 16}
	for i := 0; i < x.Rows(); i++ {
		ds.X, ds.Y = append(ds.X, x.Row(i)), append(ds.Y, i%3)
	}
	cfg := model.DefaultSupTrainConfig()
	cfg.Epochs, cfg.BatchSize = 1, 5
	m := model.NewSupModel(rand.New(rand.NewSource(65)), ssl.Arch{InputDim: 16, HiddenDim: 20, FeatDim: 12, ProjDim: 8}, 3)
	if _, err := model.TrainSupervised(rand.New(rand.NewSource(66)), m, ds, cfg); err != nil {
		t.Fatalf("TrainSupervised: %v", err)
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
// baselines and the probe train on pooled tapes; three rounds and the
// personalization stage.
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

// paramList is a hand-assembled nn.Module.
type paramList []*nn.Param

func (p paramList) Params() []*nn.Param { return p }

// TestPoisonedUninitOpsBitIdentical runs every graph op that draws its
// output uninitialised because it writes every element — and the softmax
// losses' fused nodes, which draw all their buffers so — directly on a step
// tape, forward and backward, once as it is and once with the arena's
// recycled uninitialised buffers poisoned: the op's value, the loss and the
// parameter gradients must keep their bits.
func TestPoisonedUninitOpsBitIdentical(t *testing.T) {
	const m, n = 6, 5
	rng := rand.New(rand.NewSource(67))
	ps := paramList{nn.NewParam("a", m, n), nn.NewParam("b", m, n), nn.NewParam("bias", 1, n), nn.NewParam("protos", 3, n)}
	xs := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		xs[i] = tensor.New(p.Value.Shape()...)
		for j := range p.Value.Data() {
			p.Value.Data()[j] = 2 * rng.NormFloat64()
			xs[i].Data()[j] = rng.NormFloat64()
		}
	}
	q := tensor.New(m, n)
	for i := range q.Data() {
		q.Data()[i] = rng.Float64() / n
	}
	targets := []int{0, 4, 2, 2, 1, 3}
	exclude := [][]int{{1}, {0, 2}, nil, {4}}
	assign := []int{0, 1, 2, 0, 1, 2}
	ops := []struct {
		name string
		op   func(in []*nn.Node) *nn.Node
	}{
		{"Add", func(in []*nn.Node) *nn.Node { return nn.Add(in[0], in[1]) }},
		{"Sub", func(in []*nn.Node) *nn.Node { return nn.Sub(in[0], in[1]) }},
		{"Scale", func(in []*nn.Node) *nn.Node { return nn.Scale(in[0], 0.3) }},
		{"AddBias", func(in []*nn.Node) *nn.Node { return nn.AddBias(in[0], in[2]) }},
		{"ReLU", func(in []*nn.Node) *nn.Node { return nn.ReLU(in[0]) }},
		{"Tanh", func(in []*nn.Node) *nn.Node { return nn.Tanh(in[0]) }},
		{"L2NormalizeRows", func(in []*nn.Node) *nn.Node { return nn.L2NormalizeRows(in[0]) }},
		{"ConcatRows", func(in []*nn.Node) *nn.Node { return nn.ConcatRows(in[0], in[1]) }},
		{"ConcatCols", func(in []*nn.Node) *nn.Node { return nn.ConcatCols(in[0], in[1]) }},
		{"GatherRows", func(in []*nn.Node) *nn.Node { return nn.GatherRows(in[0], []int{0, 2, 2, 5}) }},
		{"MaskedCrossEntropy", func(in []*nn.Node) *nn.Node { return nn.MaskedCrossEntropy(in[0], targets, exclude) }},
		{"SoftCrossEntropy", func(in []*nn.Node) *nn.Node { return nn.SoftCrossEntropy(in[0], q) }},
		{"NTXent", func(in []*nn.Node) *nn.Node { return nn.NTXent(in[0], 0.5) }},
		{"PairNTXent", func(in []*nn.Node) *nn.Node { return nn.PairNTXent(in[0], in[1], 0.5) }},
		{"PrototypeCE", func(in []*nn.Node) *nn.Node { return nn.PrototypeCE(in[0], in[3], assign, 0.5) }},
	}
	tape := nn.NewTape(tensor.NewArena())
	grads := tape.LendGrads(ps)
	defer tape.Release()
	// run builds op over parameters added to taped inputs, so that every
	// buffer comes from the tape's arena and the gradient reaches the
	// parameters, and returns the op's value, the loss and the gradients.
	run := func(op func(in []*nn.Node) *nn.Node) []float64 {
		defer tape.Reset()
		clear(grads)
		in := make([]*nn.Node, len(ps))
		for i, p := range ps {
			in[i] = nn.Add(nn.InputOn(tape, xs[i]), p.Node())
		}
		out := op(in)
		loss := out
		if out.Value.Len() != 1 {
			loss = nn.SumSquares(out)
		}
		if err := nn.Backward(loss); err != nil {
			t.Fatal(err)
		}
		return append(append(slices.Clone(out.Value.Data()), loss.Value.Data()...), grads...)
	}
	for _, c := range ops {
		t.Run(c.name, func(t *testing.T) {
			run(c.op) // fills the arena's free lists with this op's buffers
			want := run(c.op)
			before := tape.Arena().Stats()
			tensor.PoisonUninit(t)
			got := run(c.op)
			if after := tape.Arena().Stats(); after.Hits == before.Hits {
				t.Fatal("the arena never recycled a buffer: the poison was not exercised")
			}
			sameVector(t, c.name+" value, loss and gradients", want, got)
		})
	}
}
