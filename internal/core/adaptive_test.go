package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/data"
	"calibre/internal/eval"
	"calibre/internal/kmeans"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// blobs builds points around k separated centers.
func blobs(rng *rand.Rand, k, perCluster, d int, sep, std float64) (*tensor.Tensor, []int) {
	centers := tensor.RandN(rng, sep, k, d)
	x := tensor.New(k*perCluster, d)
	truth := make([]int, k*perCluster)
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			idx := c*perCluster + i
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = centers.At(c, j) + rng.NormFloat64()*std
			}
			x.SetRow(idx, row)
			truth[idx] = c
		}
	}
	return x, truth
}

func TestSelectKFindsTrueClusterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, trueK := range []int{2, 3, 4} {
		x, truth := blobs(rng, trueK, 20, 6, 8, 0.3)
		res, err := SelectK(rng, x, 10)
		if err != nil {
			t.Fatalf("SelectK: %v", err)
		}
		if got := res.Centers.Rows(); got != trueK {
			t.Fatalf("SelectK picked K=%d for %d true clusters", got, trueK)
		}
		purity, err := eval.ClusterPurity(res.Assign, truth)
		if err != nil {
			t.Fatalf("ClusterPurity: %v", err)
		}
		if purity < 0.95 {
			t.Fatalf("purity = %v for trueK=%d", purity, trueK)
		}
	}
}

func TestSelectKSmallBatchClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandN(rng, 1, 3, 4)
	res, err := SelectK(rng, x, 10)
	if err != nil {
		t.Fatalf("SelectK: %v", err)
	}
	if res.Centers.Rows() > 3 {
		t.Fatalf("K=%d exceeds n=3", res.Centers.Rows())
	}
}

func TestConfidentMembersFiltersBoundary(t *testing.T) {
	// Two centers at ±5; points at the centers are confident, a point at 0
	// is not.
	centers := data.Batch([][]float64{{-5}, {5}})
	x := data.Batch([][]float64{{-5}, {-4.8}, {0.1}, {4.9}, {5}})
	assign := []int{0, 0, 1, 1, 1}
	kept := confidentMembers(nil, x, centers, assign, 0.8)
	for _, i := range kept {
		if i == 2 {
			t.Fatal("the boundary point must be filtered out")
		}
	}
	if len(kept) != 4 {
		t.Fatalf("kept = %v, want 4 members", kept)
	}
	// keepFrac ≤ 0 or ≥ 1 keeps everyone.
	if got := confidentMembers(nil, x, centers, assign, 0); len(got) != 5 {
		t.Fatalf("keepFrac=0 should keep all, got %v", got)
	}
	if got := confidentMembers(nil, x, centers, assign, 1); len(got) != 5 {
		t.Fatalf("keepFrac=1 should keep all, got %v", got)
	}
}

func TestConfidentMembersMinimumTwo(t *testing.T) {
	centers := data.Batch([][]float64{{-1}, {1}})
	x := data.Batch([][]float64{{-1}, {1}, {0}})
	kept := confidentMembers(nil, x, centers, []int{0, 1, 0}, 0.01)
	if len(kept) < 2 {
		t.Fatalf("must keep at least 2, got %v", kept)
	}
}

// TestAssignmentMarginsMatchNaive holds the confidence filter's margins, on
// the batch shape the regulariser clusters (32 × 48, every K SelectK tries,
// and a K past one stack chunk of centres), to one SqDist per (point,
// centre) pair, bit for bit; confidentMembers only sorts them.
func TestAssignmentMarginsMatchNaive(t *testing.T) {
	for _, k := range []int{2, 3, 4, 6, 8, 10, 21} {
		rng := rand.New(rand.NewSource(int64(70 + k)))
		x := tensor.RandN(rng, 1, 32, 48)
		res, err := kmeans.Run(rng, x, kmeans.Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, x.Rows())
		assignmentMargins(got, x, res.Centers, res.Assign)
		for i, own := range res.Assign {
			runner := math.Inf(1)
			for c := 0; c < k; c++ {
				if d := tensor.SqDist(x.Row(i), res.Centers.Row(c)); c != own && d < runner {
					runner = d
				}
			}
			want := runner - tensor.SqDist(x.Row(i), res.Centers.Row(own))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("K=%d: margin of point %d is %v, reference %v", k, i, got[i], want)
			}
		}
	}
}

// structuredStepCtx builds a step context whose inputs have clear cluster
// structure, so the silhouette gate passes.
func structuredStepCtx(t *testing.T, seed int64) *ssl.StepContext {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := ssl.NewBackbone(rng, testArch())
	x, _ := blobs(rng, 3, 8, 16, 6, 0.2)
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = x.Row(i)
	}
	// Mild augmentation so pairs stay close.
	v1 := tensor.New(x.Rows(), 16)
	v2 := tensor.New(x.Rows(), 16)
	for i, r := range rows {
		a := make([]float64, 16)
		bb := make([]float64, 16)
		for j := range r {
			a[j] = r[j] + rng.NormFloat64()*0.05
			bb[j] = r[j] + rng.NormFloat64()*0.05
		}
		v1.SetRow(i, a)
		v2.SetRow(i, bb)
	}
	return ssl.NewStepContextOn(nil, rng, b, v1, v2)
}

func TestRegularizerGatePassesOnStructuredData(t *testing.T) {
	reg, err := NewRegularizer(DefaultOptions())
	if err != nil {
		t.Fatalf("NewRegularizer: %v", err)
	}
	ctx := structuredStepCtx(t, 3)
	base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
	total := apply(t, reg, ctx, base)
	if total == base {
		t.Fatal("structured batch should produce regularizer terms")
	}
}

func TestWarmupDelaysRegularizer(t *testing.T) {
	clients := testClients(t, 1, 30)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	cfg.Opts.WarmupRounds = 5
	method, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	trainer := method.Trainer.(*SSLTrainer)
	rng := rand.New(rand.NewSource(4))
	global, err := trainer.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	// During warm-up (round < 5) the update must match a pFL-SSL update
	// with the same RNG stream: the hook is inactive.
	pflCfg := cfg
	pfl, err := NewPFLSSL(pflCfg)
	if err != nil {
		t.Fatalf("NewPFLSSL: %v", err)
	}
	uCal, err := trainer.Train(context.Background(), rand.New(rand.NewSource(5)), clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	uPfl, err := pfl.Trainer.Train(context.Background(), rand.New(rand.NewSource(5)), clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train pfl: %v", err)
	}
	if uCal.TrainLoss != uPfl.TrainLoss {
		t.Fatalf("warm-up round should train identically to pFL-SSL: %v vs %v", uCal.TrainLoss, uPfl.TrainLoss)
	}
	// Past warm-up the losses diverge (regularizer active).
	uCal2, err := trainer.Train(context.Background(), rand.New(rand.NewSource(5)), clients[0], global, 10)
	if err != nil {
		t.Fatalf("Train r10: %v", err)
	}
	uPfl2, err := pfl.Trainer.Train(context.Background(), rand.New(rand.NewSource(5)), clients[0], global, 10)
	if err != nil {
		t.Fatalf("Train pfl r10: %v", err)
	}
	if uCal2.TrainLoss == uPfl2.TrainLoss {
		t.Fatal("post-warm-up round should include the regularizer")
	}
}

// naiveSelectK is SelectK as first written — every candidate clustered and
// then scored by a full kmeans.Silhouette over x — kept as the oracle for
// the shared-distance version.
func naiveSelectK(rng *rand.Rand, x *tensor.Tensor, maxK int) (*kmeans.Result, float64) {
	if n := x.Rows(); maxK > n {
		maxK = n
	}
	if maxK < 2 {
		maxK = 2
	}
	var best *kmeans.Result
	bestScore := math.Inf(-1)
	seen := map[int]bool{}
	for _, k := range []int{2, 3, 4, 6, 8, maxK} {
		if k > maxK || seen[k] {
			continue
		}
		seen[k] = true
		res, err := kmeans.Run(rng, x, kmeans.Config{K: k})
		if err != nil {
			panic(err)
		}
		if score := kmeans.Silhouette(x, res.Assign); score > bestScore {
			bestScore, best = score, res
		}
	}
	return best, bestScore
}

// TestSelectKMatchesNaive: computing the batch's distances once changes
// nothing observable — same winner (assignment, centers, inertia), same
// score, same RNG state afterwards — at the per-step and the per-client
// problem size, for grids that end on, between and below the fixed
// candidates, with the distance buffer on the heap and in an arena, and with
// the candidates clustered on the heap and in one workspace that every case
// before has left its results in: the winner (K = 4 or 5 here, with larger
// candidates run after it) must come back intact from the held slot.
func TestSelectKMatchesNaive(t *testing.T) {
	arena, ws := tensor.NewArena(), new(kmeans.Workspace)
	for _, shape := range []struct{ k, per, d int }{{4, 8, 24}, {5, 25, 48}} { // n = 32, n = 125
		x, _ := blobs(rand.New(rand.NewSource(41)), shape.k, shape.per, shape.d, 3, 1)
		for _, maxK := range []int{10, 8, 5, 3, 2, 1, 1000} {
			for _, mem := range []struct {
				a  *tensor.Arena
				ws *kmeans.Workspace
			}{{nil, nil}, {arena, nil}, {arena, ws}, {nil, ws}} {
				a := mem.a
				seed := int64(100*maxK + shape.d)
				wantRNG, gotRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want, wantScore := naiveSelectK(wantRNG, x, maxK)
				got, gotScore, err := selectK(a, mem.ws, gotRNG, x, maxK)
				if err != nil {
					t.Fatalf("selectK(n=%d, maxK=%d): %v", x.Rows(), maxK, err)
				}
				if math.Float64bits(gotScore) != math.Float64bits(wantScore) ||
					math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
					t.Fatalf("n=%d maxK=%d arena=%v workspace=%v: score %v inertia %v, want %v %v",
						x.Rows(), maxK, a != nil, mem.ws != nil, gotScore, got.Inertia, wantScore, want.Inertia)
				}
				if !reflect.DeepEqual(got.Assign, want.Assign) {
					t.Fatalf("n=%d maxK=%d arena=%v: assignment differs", x.Rows(), maxK, a != nil)
				}
				for i, w := range want.Centers.Data() {
					if math.Float64bits(got.Centers.Data()[i]) != math.Float64bits(w) {
						t.Fatalf("n=%d maxK=%d arena=%v: center element %d differs", x.Rows(), maxK, a != nil, i)
					}
				}
				if gotRNG.Int63() != wantRNG.Int63() {
					t.Fatalf("n=%d maxK=%d arena=%v: RNG consumed differently", x.Rows(), maxK, a != nil)
				}
			}
		}
	}
	if out := arena.Stats().Outstanding; out != 0 {
		t.Fatalf("%d distance buffers never returned to the arena", out)
	}
}
