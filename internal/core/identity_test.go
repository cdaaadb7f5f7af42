package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"calibre/internal/data"
	"calibre/internal/kmeans"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// blobRows is blobs as the row table ssl.Train draws from.
func blobRows(seed int64, k, perCluster int) [][]float64 {
	x, _ := blobs(rand.New(rand.NewSource(seed)), k, perCluster, 16, 3, 0.5)
	rows := make([][]float64, x.Rows())
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return rows
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRegularizedStepTapeEqualsHeap: a step with the regularizer installed
// comes out the same — loss and every parameter gradient, by bits, and the
// rng behind it — whether what it builds is borrowed (tape over an arena,
// the client's k-means workspace) or made on the heap (nil tape, nil arena,
// nil workspace), on a first step and on one that runs in the buffers the
// step before left behind. Both option sets that cluster differently are
// covered: the adaptive grid and a fixed K.
func TestRegularizedStepTapeEqualsHeap(t *testing.T) {
	for _, fixedK := range []bool{false, true} {
		opts := DefaultOptions()
		opts.FixedK = fixedK
		opts.NumClusters = 6
		reg, err := NewRegularizer(opts)
		if err != nil {
			t.Fatal(err)
		}
		b := ssl.NewBackbone(rand.New(rand.NewSource(91)), testArch())
		nn.NewSGD(b, 0, 0, 0) // gradient storage of its own, for a step outside a local update
		arena := tensor.NewArena()
		tape, ws := nn.NewTape(arena), new(kmeans.Workspace)
		for step, batch := range []int{24, 24, 9, 24} {
			rows := blobRows(int64(92+step), 3, batch/3)
			v1, v2 := data.DefaultAugmenter().TwoViews(rand.New(rand.NewSource(93)), rows)
			run := func(tp *nn.Tape, a *tensor.Arena, w *kmeans.Workspace) (float64, []float64, int64) {
				rng := rand.New(rand.NewSource(94))
				ctx := ssl.NewStepContextOn(tp, rng, b, v1, v2)
				ctx.Arena, ctx.KMeans = a, w
				total := apply(t, reg, ctx, nn.PairNTXent(ctx.H1, ctx.H2, 0.5))
				for _, p := range b.Params() {
					p.ZeroGrad()
				}
				if err := nn.Backward(total); err != nil {
					t.Fatal(err)
				}
				var grads []float64
				for _, p := range b.Params() {
					grads = append(grads, p.Grad.Data()...)
				}
				loss := total.Value.At(0, 0)
				tp.Reset()
				return loss, grads, rng.Int63()
			}
			heapLoss, heapGrads, heapRNG := run(nil, nil, nil)
			for name, got := range map[string]func() (float64, []float64, int64){
				"tape+arena+workspace": func() (float64, []float64, int64) { return run(tape, arena, ws) },
				"tape over nil arena":  func() (float64, []float64, int64) { return run(nn.NewTape(nil), nil, ws) },
			} {
				loss, grads, next := got()
				if math.Float64bits(loss) != math.Float64bits(heapLoss) || !sameBits(grads, heapGrads) || next != heapRNG {
					t.Fatalf("fixedK=%v step %d (%s): loss %v (heap %v), gradients equal: %v, rng equal: %v",
						fixedK, step, name, loss, heapLoss, sameBits(grads, heapGrads), next == heapRNG)
				}
			}
		}
		if out := arena.Stats().Outstanding; out != 0 {
			t.Fatalf("fixedK=%v: %d arena buffers outstanding after the steps' resets", fixedK, out)
		}
	}
}

// TestRegularizedTrainWarmEqualsCold: a local update trains on the tape nn's
// pool lends it, and into the gradient vector param's pool lends, which hold
// whatever the last update to release them left, and must come out
// bit-identical to one on a tape that never served. Warm
// is the case the pool creates: the tape last ran another client's
// supervised fedavg update and then a BYOL update with the regularizer on
// (other models, other methods, other batch shapes and cluster counts), and
// the client's own k-means workspace holds its previous round's clusterings.
func TestRegularizedTrainWarmEqualsCold(t *testing.T) {
	reg, err := NewRegularizer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	build := func(method string) *ssl.Trainable {
		factory, err := ssl.Lookup(method)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ssl.NewTrainable(rand.New(rand.NewSource(95)), testArch(), factory)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cfg := ssl.DefaultTrainConfig()
	cfg.Epochs, cfg.BatchSize = 2, 16
	rows := blobRows(96, 4, 10) // 40 rows: two full batches and a tail of 8
	train := func(tr *ssl.Trainable) (float64, []float64) {
		loss, err := ssl.Train(rand.New(rand.NewSource(97)), tr, rows, cfg, reg.Apply)
		if err != nil {
			t.Fatal(err)
		}
		return loss, nn.Flatten(tr)
	}
	tape := coldPool(t)
	coldLoss, coldParams := train(build("simclr"))
	if nextTape() != tape {
		t.Fatal("the cold update did not train on the tape the pool lent")
	}

	warm := build("simclr")
	initial := nn.Flatten(warm)
	other := cfg
	other.BatchSize = 12
	if _, err := ssl.Train(rand.New(rand.NewSource(98)), warm, blobRows(99, 2, 15), other, reg.Apply); err != nil {
		t.Fatal(err)
	}
	if err := nn.Unflatten(warm, initial); err != nil {
		t.Fatal(err)
	}
	x, y := blobs(rand.New(rand.NewSource(106)), 3, 9, 16, 3, 0.5)
	ds := &data.Dataset{NumClasses: 3, Dim: 16, Y: y}
	for i := 0; i < x.Rows(); i++ {
		ds.X = append(ds.X, x.Row(i))
	}
	sup := model.DefaultSupTrainConfig()
	sup.Epochs, sup.BatchSize = 1, 10
	if _, err := model.TrainSupervised(rand.New(rand.NewSource(107)), model.NewSupModel(rand.New(rand.NewSource(108)), testArch(), 3), ds, sup); err != nil {
		t.Fatal(err)
	}
	byol := cfg
	byol.BatchSize = 7
	if _, err := ssl.Train(rand.New(rand.NewSource(109)), build("byol"), blobRows(110, 3, 7), byol, reg.Apply); err != nil {
		t.Fatal(err)
	}
	before := tape.Arena().Stats()
	warmLoss, warmParams := train(warm)
	after := tape.Arena().Stats()
	if nextTape() != tape {
		t.Fatal("the warm update did not train on the tape the pool lent")
	}
	if after.Hits == before.Hits {
		t.Fatal("the warm tape never handed out a recycled buffer")
	}
	if math.Float64bits(warmLoss) != math.Float64bits(coldLoss) || !sameBits(warmParams, coldParams) {
		t.Fatalf("warm client: loss %v, cold %v; parameters equal: %v", warmLoss, coldLoss, sameBits(warmParams, coldParams))
	}
	if after.Outstanding != 0 {
		t.Fatalf("%d arena buffers outstanding after Train", after.Outstanding)
	}
}

// nextTape is the tape nn's pool lends next. The pool is last-in first-out
// and this package's tests run one at a time, so it is the tape the next
// local update trains on, and the one the last update gave back.
func nextTape() *nn.Tape {
	tp := nn.BorrowTape()
	tp.Release()
	return tp
}

// coldPool makes the tape nn's pool lends next one that has never served and
// returns it: it borrows until the pool hands out a tape whose arena never
// lent a buffer, gives that one back, and keeps the others out of the pool
// until the test ends.
func coldPool(t *testing.T) *nn.Tape {
	var held []*nn.Tape
	t.Cleanup(func() {
		for _, tp := range held {
			tp.Release()
		}
	})
	for {
		tp := nn.BorrowTape()
		if tp.Arena().Stats().Gets == 0 {
			tp.Release()
			return tp
		}
		held = append(held, tp)
	}
}

// TestConfidentMembersKeepsSortSliceSet: the confidence filter sorts with
// slices.SortFunc where it used sort.Slice; neither is stable, so with
// margins that tie across the cut-off the set kept is the sorting
// algorithm's choice — and must stay the one sort.Slice made. Points are
// drawn from a few fixed positions, so most margins repeat.
func TestConfidentMembersKeepsSortSliceSet(t *testing.T) {
	reference := func(x, centers *tensor.Tensor, assign []int, keepFrac float64) []int {
		n := x.Rows()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		margins := make([]float64, n)
		assignmentMargins(margins, x, centers, assign)
		sort.Slice(all, func(a, b int) bool { return margins[all[a]] > margins[all[b]] })
		keep := min(max(int(math.Ceil(keepFrac*float64(n))), 2), n)
		kept := append([]int(nil), all[:keep]...)
		sort.Ints(kept)
		return kept
	}
	rng := rand.New(rand.NewSource(100))
	tape := nn.NewTape(tensor.NewArena())
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(62)
		positions := tensor.RandN(rng, 1, 1+rng.Intn(5), 3)
		x := tensor.New(n, 3)
		for i := 0; i < n; i++ {
			x.SetRow(i, positions.Row(rng.Intn(positions.Rows())))
		}
		k := 2 + rng.Intn(4)
		centers := tensor.RandN(rng, 1, k, 3)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		keepFrac := 0.05 + 0.9*rng.Float64()
		want := reference(x, centers, assign, keepFrac)
		for _, tp := range []*nn.Tape{nil, tape} {
			got := confidentMembers(tp, x, centers, assign, keepFrac)
			if len(got) != len(want) {
				t.Fatalf("trial %d: kept %d members, sort.Slice kept %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (n=%d keepFrac=%.2f): kept %v, sort.Slice kept %v", trial, n, keepFrac, got, want)
				}
			}
		}
		tape.Reset()
	}
}

// identicalStepCtx is a step whose every sample is the same point in both
// views: nothing to cluster.
func identicalStepCtx(t *testing.T) *ssl.StepContext {
	t.Helper()
	b := ssl.NewBackbone(rand.New(rand.NewSource(101)), testArch())
	row := make([]float64, 16)
	for j := range row {
		row[j] = float64(j%5) - 2
	}
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = row
	}
	return ssl.NewStepContextOn(nil, rand.New(rand.NewSource(102)), b, data.Batch(rows), data.Batch(rows))
}

// TestRegularizerSkipsOnlyLegitimately: the two clusterings the regularizer
// is right to train without — a silhouette that does not pass the gate, and
// fewer than two clusters with a confident member — give back the method's
// own loss and no error.
func TestRegularizerSkipsOnlyLegitimately(t *testing.T) {
	for name, noGate := range map[string]bool{"gate closed": false, "one cluster kept": true} {
		opts := DefaultOptions()
		opts.NoQualityGate = noGate
		reg, err := NewRegularizer(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := identicalStepCtx(t)
		base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
		got, err := reg.Apply(ctx, base)
		if err != nil || got != base {
			t.Fatalf("%s: Apply = (%p, %v), want the base loss %p and no error", name, got, err, base)
		}
	}
}

// TestRegularizerClusteringErrorFailsTheStep: a clustering that cannot run
// (here K = 0, which only a Regularizer built around NewRegularizer's
// validation can ask for) used to be answered by silently training the step
// without the paper's loss terms; it now comes out of Apply, and out of
// ssl.Train, as an error.
func TestRegularizerClusteringErrorFailsTheStep(t *testing.T) {
	opts := DefaultOptions()
	opts.FixedK, opts.NumClusters = true, 0
	reg := &Regularizer{Opts: opts}
	ctx := stepCtx(t, 6, 8)
	if _, err := reg.Apply(ctx, nn.PairNTXent(ctx.H1, ctx.H2, 0.5)); err == nil || !strings.Contains(err.Error(), "K must be ≥1") {
		t.Fatalf("Apply error = %v, want the k-means K error", err)
	}

	factory, err := ssl.Lookup("simclr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ssl.NewTrainable(rand.New(rand.NewSource(103)), testArch(), factory)
	if err != nil {
		t.Fatal(err)
	}
	before, lent := nn.Flatten(tr), nextTape()
	_, err = ssl.Train(rand.New(rand.NewSource(104)), tr, blobRows(105, 2, 8), shortTrainCfg(), reg.Apply)
	if err == nil || !strings.Contains(err.Error(), "pseudo-label clustering") {
		t.Fatalf("Train error = %v, want the regularizer's", err)
	}
	if errors.Unwrap(err) == nil {
		t.Fatalf("Train error %q does not wrap its cause", err)
	}
	if !sameBits(nn.Flatten(tr), before) {
		t.Fatal("a step that failed in its loss must not move the parameters")
	}
	if tape := nextTape(); tape != lent {
		t.Fatal("the failed Train did not give back the tape it borrowed")
	} else if out := tape.Arena().Stats().Outstanding; out != 0 {
		t.Fatalf("%d arena buffers outstanding after the failed Train", out)
	}
}
