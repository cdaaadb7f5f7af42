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
// encodings) and core.selectK's candidate grid on each, returns what a fresh
// Run returns — every field of the result, and the rng left in the same
// state — with whatever the case before left in its buffers. The first
// candidate's result is held, as selectK holds its best so far, and must
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

// TestWarmedClusteringAllocatesNothing: Run on a workspace that has seen the
// shape, and SilhouetteFrom on a k-means assignment, are allocation-free —
// what lets core's regularized training step allocate nothing but its ops'
// closures.
func TestWarmedClusteringAllocatesNothing(t *testing.T) {
	x := tensor.RandN(rand.New(rand.NewSource(61)), 1, 32, 24)
	rng := rand.New(rand.NewSource(62))
	ws := new(Workspace)
	run := func() {
		for _, k := range []int{2, 3, 4, 6, 8, 10} {
			if _, err := ws.Run(rng, x, Config{K: k}); err != nil {
				t.Fatal(err)
			}
			ws.Hold()
		}
	}
	run() // both slots see every K
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("six Runs on a warmed workspace make %v allocations, want 0", allocs)
	}
	res, err := ws.Run(rng, x, Config{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	dist := PairDistances(nil, x)
	if allocs := testing.AllocsPerRun(10, func() { SilhouetteFrom(dist, res.Assign) }); allocs != 0 {
		t.Errorf("SilhouetteFrom makes %v allocations, want 0", allocs)
	}
}
