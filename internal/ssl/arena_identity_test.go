package ssl

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"calibre/internal/kmeans"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// clusterHook stands in for core's regularizer, which this package cannot
// import (internal/core's identity tests run the real one): it clusters the
// step's projections in the client's k-means workspace, keeps the member
// lists in tape scratch, and adds a prototype term built from them.
func clusterHook(ctx *StepContext, loss *nn.Node) (*nn.Node, error) {
	res, err := ctx.KMeans.Run(ctx.RNG, ctx.H1.Value, kmeans.Config{K: 2})
	if err != nil {
		return nil, err
	}
	groups := ctx.Tape.IntRows(len(res.Groups))
	for c, g := range res.Groups {
		groups[c] = ctx.Tape.Ints(len(g))
		copy(groups[c], g)
	}
	return nn.Add(loss, nn.Scale(nn.Mean(nn.GroupMean(ctx.Z1, groups)), 0.1)), nil
}

// TestTrainArenaBitIdentical pins what every local update relies on: Train
// borrows a pooled tape whose arena, node slab and scratch hold whatever the
// last update to release it left, and its parameters and loss must come out
// bit-identical to a run on a tape that never served. Warm is the case the
// pool creates: the tape last trained another client, with another method
// and another batch shape, with the loss hook on, and the trainable's k-means
// workspace holds that client's clusterings too. The method roster covers
// the cross-step escape paths — MoCo's key queue, BYOL's momentum target,
// SwAV's prototype params — that must deep-copy out of the tape's buffers
// before Reset. Every method also runs with a loss hook installed, whose step
// borrows index scratch from the tape and clusters in the k-means workspace.
func TestTrainArenaBitIdentical(t *testing.T) {
	for _, method := range []string{"simclr", "mocov2", "byol", "swav", "simclr+hook", "mocov2+hook"} {
		t.Run(method, func(t *testing.T) {
			method, hooked := strings.CutSuffix(method, "+hook")
			var hook LossHook
			if hooked {
				hook = clusterHook
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 2
			cfg.BatchSize = 4
			other := "byol"
			if method == other {
				other = "simclr"
			}

			build := func(method string) *Trainable {
				b := testBackbone(t, 61)
				return &Trainable{Backbone: b, Method: buildMethod(t, method, b)}
			}
			run := func(warm bool) (float64, []float64) {
				tr, tape := build(method), nn.NewTape(tensor.NewArena())
				if warm {
					prev := build(other)
					prevCfg := cfg
					prevCfg.BatchSize = 5
					if _, err := train(tape, rand.New(rand.NewSource(7)), prev, testRows(rand.New(rand.NewSource(8)), 12, 16), prevCfg, clusterHook); err != nil {
						t.Fatalf("warm-up Train: %v", err)
					}
					tr.kmeans = prev.kmeans
				}
				before := tape.Arena().Stats()
				loss, err := train(tape, rand.New(rand.NewSource(62)), tr, testRows(rand.New(rand.NewSource(63)), 10, 16), cfg, hook)
				if err != nil {
					t.Fatalf("Train(warm=%v): %v", warm, err)
				}
				after := tape.Arena().Stats()
				if warm && after.Hits == before.Hits {
					t.Fatal("the warm arena never handed out a recycled buffer")
				}
				if after.Outstanding != 0 {
					t.Fatalf("warm=%v: %d arena buffers outstanding after Train", warm, after.Outstanding)
				}
				return loss, nn.Flatten(tr)
			}

			coldLoss, coldParams := run(false)
			warmLoss, warmParams := run(true)
			if math.Float64bits(warmLoss) != math.Float64bits(coldLoss) {
				t.Fatalf("loss differs: warm arena %v, cold %v", warmLoss, coldLoss)
			}
			if len(warmParams) != len(coldParams) {
				t.Fatalf("param count differs: %d vs %d", len(warmParams), len(coldParams))
			}
			for i := range coldParams {
				if math.Float64bits(warmParams[i]) != math.Float64bits(coldParams[i]) {
					t.Fatalf("param %d differs: warm arena %v, cold %v", i, warmParams[i], coldParams[i])
				}
			}
		})
	}
}

// TestTrainArenaReusesBuffers pins that Train trains on the tape the pool
// lends and gives it back: the pool is last-in first-out and this package's
// tests run one at a time, so the tape it lends next is the one Train will
// borrow, and after a multi-step run that tape's arena has recycled at least
// one buffer, has every buffer back, and is the one the pool lends again.
func TestTrainArenaReusesBuffers(t *testing.T) {
	b := testBackbone(t, 64)
	tr := &Trainable{Backbone: b, Method: buildMethod(t, "simclr", b)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 4
	tape := nn.BorrowTape()
	before := tape.Arena().Stats()
	tape.Release()
	if _, err := Train(rand.New(rand.NewSource(65)), tr, testRows(rand.New(rand.NewSource(66)), 10, 16), cfg, nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	again := nn.BorrowTape()
	defer again.Release()
	if again != tape {
		t.Fatal("the pool lends a different tape after Train: Train did not give back the tape it borrowed")
	}
	st := tape.Arena().Stats()
	if st.Hits == before.Hits {
		t.Fatalf("arena never hit the free list during Train: %+v before, %+v after", before, st)
	}
	if st.Outstanding != 0 {
		t.Fatalf("arena has %d buffers outstanding after Train", st.Outstanding)
	}
}
