package ssl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"calibre/internal/data"
	"calibre/internal/nn"
)

// TestLiteralTrainableTrainsLikeAConstructedOne drives a Trainable the way
// bench/ does — assembled by struct literal, stepped by hand with nn.NewSGD
// before anything laid it out, then handed to Train — beside one from
// NewTrainable, which is laid out. A method's extra parameters are
// built apart from the backbone, so for byol and swav the literal's
// optimizer runs over several runs of parameters and the constructed one's
// over one: every bit must agree anyway, and afterwards both are one vector
// with a cached parameter list.
func TestLiteralTrainableTrainsLikeAConstructedOne(t *testing.T) {
	arch := Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	rows := testRows(rand.New(rand.NewSource(81)), 24, 16)
	cfg := DefaultTrainConfig()
	cfg.BatchSize = 8
	for _, name := range []string{"simclr", "byol", "swav"} {
		t.Run(name, func(t *testing.T) {
			factory, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			built, err := NewTrainable(rand.New(rand.NewSource(82)), arch, factory)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(82))
			backbone := NewBackbone(rng, arch)
			method, err := factory(rng, backbone)
			if err != nil {
				t.Fatal(err)
			}
			literal := &Trainable{Backbone: backbone, Method: method}

			for _, tr := range []*Trainable{built, literal} {
				rng := rand.New(rand.NewSource(83))
				opt := nn.NewSGD(tr, cfg.LR, cfg.Momentum, 0)
				tape := nn.NewTape(tr.Arena())
				for step := 0; step < 3; step++ {
					v1, v2 := data.DefaultAugmenter().TwoViews(rng, rows[:8])
					loss := tr.Method.Loss(NewStepContextOn(tape, rng, tr.Backbone, v1, v2))
					opt.ZeroGrad()
					if err := nn.Backward(loss); err != nil {
						t.Fatal(err)
					}
					opt.ClipGradNorm(cfg.ClipNorm)
					opt.Step()
					tr.Method.AfterStep(tr.Backbone)
					tape.Reset()
				}
				if _, err := Train(rng, tr, rows, cfg, nil); err != nil {
					t.Fatal(err)
				}
			}
			a, b := nn.Values(built), nn.Values(literal)
			if len(a) != len(b) || len(a) != nn.ParamCount(built) {
				t.Fatalf("the constructed trainable has %d values, the literal %d, ParamCount %d", len(a), len(b), nn.ParamCount(built))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("value %d: the constructed trainable holds %v, the literal %v", i, a[i], b[i])
				}
			}
			for _, tr := range []*Trainable{built, literal} {
				if n := testing.AllocsPerRun(10, func() { tr.Backbone.Params(); tr.Params(); nn.Values(tr); nn.Grads(tr) }); n != 0 {
					t.Errorf("Params, Values and Grads of a laid-out trainable allocate %v objects a call, want 0", n)
				}
			}
		})
	}
}

// TestLocalUpdateAllocatesLessThanOneParameterVector: a warmed Train call
// holds the model in place and borrows its velocity, so what it allocates —
// the batcher, the loop's closures, the ops' — stays under the size of one
// parameter vector; a velocity or a flattened copy made per call is at
// least that.
func TestLocalUpdateAllocatesLessThanOneParameterVector(t *testing.T) {
	tr, err := NewTrainable(rand.New(rand.NewSource(91)), Arch{InputDim: 16, HiddenDim: 128, FeatDim: 64, ProjDim: 32}, NewSimCLR(DefaultTau))
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(rand.New(rand.NewSource(92)), 64, 16)
	train := func() {
		if _, err := Train(rand.New(rand.NewSource(93)), tr, rows, DefaultTrainConfig(), nil); err != nil {
			t.Fatal(err)
		}
	}
	train() // warm the trainable's tape and the velocity pool
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		train()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if vector := uint64(8 * nn.ParamCount(tr)); least >= vector {
		t.Errorf("a warmed Train call allocates %d bytes, one parameter vector is %d", least, vector)
	}
}
