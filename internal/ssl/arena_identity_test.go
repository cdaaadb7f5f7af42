package ssl

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"calibre/internal/kmeans"
	"calibre/internal/nn"
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

// TestTrainArenaBitIdentical pins what a cached federated client relies on:
// a local training run on an arena full of another run's recycled buffers
// produces bit-identical parameters and loss to a run on a cold arena. The
// method roster covers the cross-step escape paths — MoCo's key queue,
// BYOL's momentum target, SwAV's prototype params — that must deep-copy out
// of the tape's buffers before Reset. Every method also runs with a loss
// hook installed, whose step borrows index scratch from the tape and
// clusters in the k-means workspace the warm run inherits with the arena.
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

			build := func() *Trainable {
				b := testBackbone(t, 61)
				return &Trainable{Backbone: b, Method: buildMethod(t, method, b)}
			}
			run := func(warm bool) (float64, []float64) {
				tr := build()
				if warm {
					prev := build()
					if _, err := Train(rand.New(rand.NewSource(7)), prev, testRows(rand.New(rand.NewSource(8)), 12, 16), cfg, hook); err != nil {
						t.Fatalf("warm-up Train: %v", err)
					}
					tr.arena, tr.tape, tr.kmeans = prev.Arena(), prev.tape, prev.kmeans
				}
				loss, err := Train(rand.New(rand.NewSource(62)), tr, testRows(rand.New(rand.NewSource(63)), 10, 16), cfg, hook)
				if err != nil {
					t.Fatalf("Train(warm=%v): %v", warm, err)
				}
				if warm && tr.Arena().Stats().Hits == 0 {
					t.Fatal("the warm arena never handed out a recycled buffer")
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

// TestTrainArenaReusesBuffers pins that the arena actually carries buffers
// across steps: after a multi-step run, the trainable's arena has recycled
// at least one buffer and everything was returned.
func TestTrainArenaReusesBuffers(t *testing.T) {
	b := testBackbone(t, 64)
	tr := &Trainable{Backbone: b, Method: buildMethod(t, "simclr", b)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 4
	if _, err := Train(rand.New(rand.NewSource(65)), tr, testRows(rand.New(rand.NewSource(66)), 10, 16), cfg, nil); err != nil {
		t.Fatalf("Train: %v", err)
	}
	st := tr.Arena().Stats()
	if st.Hits == 0 {
		t.Fatalf("arena never hit the free list: %+v", st)
	}
	if st.Outstanding != 0 {
		t.Fatalf("arena has %d buffers outstanding after Train", st.Outstanding)
	}
}
