package kmeans

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/tensor"
)

// sameResult reports how got differs from want, "" when it does not: every
// field, centres and inertia by bits.
func sameResult(got, want *Result) string {
	switch {
	case math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia):
		return "inertia"
	case got.Iters != want.Iters:
		return "iterations"
	case !reflect.DeepEqual(got.Assign, want.Assign):
		return "assignment"
	case !reflect.DeepEqual(got.Groups, want.Groups):
		return "groups"
	case !reflect.DeepEqual(got.Centers.Shape(), want.Centers.Shape()):
		return "centre shape"
	}
	for i, w := range want.Centers.Data() {
		if math.Float64bits(got.Centers.Data()[i]) != math.Float64bits(w) {
			return "centres"
		}
	}
	return ""
}

// TestWorkspaceRunMatchesFresh: one workspace, dragged through the shapes a
// client clusters (the step's 32 × 24 and tail batches, its 125 × 48
// encodings) and core.SelectKIn's candidate grid on each, returns what a fresh
// Run returns — every field of the result, and the rng left in the same
// state — with whatever the case before left in its buffers. The first
// candidate's result is held, as SelectKIn holds its best so far, and must
// still be intact after the five Runs that follow it.
func TestWorkspaceRunMatchesFresh(t *testing.T) {
	ws := new(Workspace)
	for trial, shape := range [][2]int{{32, 24}, {125, 48}, {7, 24}, {32, 24}, {3, 48}} {
		x := tensor.RandN(rand.New(rand.NewSource(int64(50+trial))), 1, shape[0], shape[1])
		if trial == 3 { // repeated points: empty clusters, reseeding draws
			for i := 3; i < x.Rows(); i++ {
				x.SetRow(i, x.Row(i%3))
			}
		}
		var held, heldWant *Result
		for _, k := range []int{2, 3, 4, 6, 8, 10} {
			rng, refRNG := rand.New(rand.NewSource(int64(k))), rand.New(rand.NewSource(int64(k)))
			want, err := Run(refRNG, x, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ws.Run(rng, x, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("trial %d K=%d: workspace Run differs from a fresh Run in %s", trial, k, diff)
			}
			if rng.Int63() != refRNG.Int63() {
				t.Fatalf("trial %d K=%d: workspace Run left the rng in a different state", trial, k)
			}
			if held == nil {
				held, heldWant = got, want
				ws.Hold()
			}
		}
		if diff := sameResult(held, heldWant); diff != "" {
			t.Fatalf("trial %d: the held result did not survive the later Runs: %s", trial, diff)
		}
	}
}

// TestNilWorkspaceResultsAreIndependent: without a workspace every result is
// the caller's, whatever runs next.
func TestNilWorkspaceResultsAreIndependent(t *testing.T) {
	var ws *Workspace
	x := tensor.RandN(rand.New(rand.NewSource(60)), 1, 20, 4)
	first, err := ws.Run(rand.New(rand.NewSource(1)), x, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Run(rand.New(rand.NewSource(1)), x, Config{K: 3})
	ws.Hold() // no-op
	if _, err := ws.Run(rand.New(rand.NewSource(2)), x, Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(first, want); diff != "" {
		t.Fatalf("a later Run changed an earlier result's %s", diff)
	}
}

// TestPairSqTableMatchesOnTheFly: a Run given x's squared-distance table
// (PairTablesInto) returns
// what a Run that computes every distance returns — every field of the
// result, the inertia by bits, and the rng left in the same state — fresh
// and on a reused workspace, over random points, duplicated points (empty
// clusters and their reseeding draws), identical points (the seeding's
// total ≤ 0 draw), K above the point count, and rows holding NaN, +Inf or
// −Inf, whose distances to themselves are NaN rather than 0.
func TestPairSqTableMatchesOnTheFly(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cases := map[string]*tensor.Tensor{
		"random":    tensor.RandN(rng, 1, 32, 24),
		"duplicate": tensor.RandN(rng, 1, 32, 24),
		"identical": tensor.RandN(rng, 1, 10, 5),
		"few":       tensor.RandN(rng, 1, 3, 4),
		"one":       tensor.RandN(rng, 1, 1, 4),
		"nonfinite": tensor.RandN(rng, 1, 20, 6),
		"all-nan":   tensor.RandN(rng, 1, 9, 3),
	}
	for i := 3; i < 32; i++ {
		cases["duplicate"].SetRow(i, cases["duplicate"].Row(i%3))
	}
	for i := 1; i < 10; i++ {
		cases["identical"].SetRow(i, cases["identical"].Row(0))
	}
	nf := cases["nonfinite"]
	nf.Row(3)[2], nf.Row(7)[0], nf.Row(11)[5] = math.NaN(), math.Inf(1), math.Inf(-1)
	nf.Row(12)[1], nf.Row(12)[4] = math.Inf(1), math.Inf(-1)
	nf.SetRow(15, nf.Row(7))
	for i := range 9 {
		cases["all-nan"].Row(i)[i%3] = math.NaN()
	}
	ws := new(Workspace)
	for name, x := range cases {
		sq, _ := pairTablesOf(x)
		for _, k := range []int{1, 2, 3, 4, 6, 8, 10} {
			for _, w := range []*Workspace{nil, ws} {
				rng, refRNG := rand.New(rand.NewSource(int64(k))), rand.New(rand.NewSource(int64(k)))
				want, err := Run(refRNG, x, Config{K: k})
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Run(rng, x, Config{K: k, PairSq: sq})
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResult(got, want); diff != "" {
					t.Fatalf("%s K=%d workspace=%v: the Run with the table differs in %s", name, k, w != nil, diff)
				}
				if rng.Int63() != refRNG.Int63() {
					t.Fatalf("%s K=%d workspace=%v: the Run with the table left the rng in a different state", name, k, w != nil)
				}
			}
		}
	}
	x := cases["few"]
	if _, err := Run(rng, x, Config{K: 2, PairSq: make([]float64, 2)}); err == nil {
		t.Fatal("a PairSq of 2 values for 3 points was accepted")
	}
}

// TestWarmedClusteringAllocatesNothing: Run on a workspace that has seen the
// shape is allocation-free — with TestTablesAndResultSilhouetteAllocateNothing,
// what lets core's regularized training step allocate nothing.
func TestWarmedClusteringAllocatesNothing(t *testing.T) {
	x := tensor.RandN(rand.New(rand.NewSource(61)), 1, 32, 24)
	rng := rand.New(rand.NewSource(62))
	ws := new(Workspace)
	sq, _ := pairTablesOf(x)
	run := func() {
		for _, k := range []int{2, 3, 4, 6, 8, 10} {
			if _, err := ws.Run(rng, x, Config{K: k}); err != nil {
				t.Fatal(err)
			}
			ws.Hold()
			if _, err := ws.Run(rng, x, Config{K: k, PairSq: sq}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // both slots see every K
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("twelve Runs on a warmed workspace, half of them reading a PairSq table, make %v allocations, want 0", allocs)
	}
}

// TestTablesAndResultSilhouetteAllocateNothing: filling a batch's distance
// tables and scoring a clustering of it from its member lists allocate
// nothing, given the tables and the sums' scratch, at a step's 32 points
// and at the 125 of a client's divergence search.
func TestTablesAndResultSilhouetteAllocateNothing(t *testing.T) {
	for _, n := range []int{125, 32} {
		x := tensor.RandN(rand.New(rand.NewSource(int64(n))), 1, n, 48)
		res, err := Run(rand.New(rand.NewSource(1)), x, Config{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sq, dist, sums := make([]float64, n*n), make([]float64, n*n), make([]float64, 4*n)
		score := func() {
			PairTablesInto(sq, dist, x)
			res.Silhouette(dist, sums)
		}
		if allocs := testing.AllocsPerRun(10, score); allocs != 0 {
			t.Errorf("n=%d: PairTablesInto and Result.Silhouette make %v allocations, want 0", n, allocs)
		}
	}
}
