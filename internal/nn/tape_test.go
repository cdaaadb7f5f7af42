package nn

import (
	"math/rand"
	"sync"
	"testing"

	"calibre/internal/tensor"
)

// TestTapePoolLendsOneTapePerBorrower: borrowers holding tapes at the same
// time get distinct ones, whether the pool has them free or makes them, and
// a tape given back with a live step on it — buffers borrowed, graph nodes
// in its slab — comes back reset: its arena has every buffer back and its
// slab is empty. The pool serves every trainer of a process, so this is a
// test to run under -race.
func TestTapePoolLendsOneTapePerBorrower(t *testing.T) {
	var pool tapePool
	pool.giveBack(NewTape(tensor.NewArena()))
	pool.giveBack(NewTape(tensor.NewArena()))
	const borrowers = 4
	lent := make([]*Tape, borrowers)
	var holding, done sync.WaitGroup
	holding.Add(borrowers)
	done.Add(borrowers)
	release := make(chan struct{})
	for i := range lent {
		go func() {
			defer done.Done()
			tp := pool.borrow()
			lent[i] = tp
			rng := rand.New(rand.NewSource(int64(i)))
			layer := NewLinear(rng, 6, 3, "pool")
			NewSGD(layer, 0, 0, 0) // gradient storage of its own
			loss := CrossEntropy(layer.Forward(InputOn(tp, tensor.RandN(rng, 1, 4, 6))), tp.Ints(4))
			if err := Backward(loss); err != nil {
				t.Error(err)
			}
			holding.Done()
			<-release // every borrower holds its tape, step alive, at once
			pool.giveBack(tp)
		}()
	}
	holding.Wait()
	close(release)
	done.Wait()

	seen := map[*Tape]bool{}
	for i, tp := range lent {
		if seen[tp] {
			t.Fatalf("borrower %d got a tape another borrower held", i)
		}
		seen[tp] = true
	}
	if len(pool.free) != borrowers {
		t.Fatalf("the pool holds %d tapes after %d borrowers gave theirs back", len(pool.free), borrowers)
	}
	for _, tp := range pool.free {
		if !seen[tp] {
			t.Fatal("the pool holds a tape no borrower was lent")
		}
		if st := tp.Arena().Stats(); st.Gets == 0 || st.Outstanding != 0 {
			t.Fatalf("a released tape's arena: %+v, want buffers lent and all of them back", st)
		}
		if len(tp.nodes) != 0 || len(tp.taken) != 0 {
			t.Fatalf("a released tape holds %d slab nodes and %d tensors, want none", len(tp.nodes), len(tp.taken))
		}
	}
}

// TestBorrowTapeLendsTheLastReleased: the process-wide pool hands out the
// tape given back last, whose buffers are the warmest, and a new tape over
// an arena of its own when none is free.
func TestBorrowTapeLendsTheLastReleased(t *testing.T) {
	a, b := BorrowTape(), BorrowTape()
	if a == b || a.Arena() == nil || a.Arena() == b.Arena() {
		t.Fatal("two tapes held at once must be distinct, each over an arena of its own")
	}
	b.Release()
	a.Release()
	next := BorrowTape()
	defer next.Release()
	if next != a {
		t.Fatal("BorrowTape did not lend the tape released last")
	}
	var none *Tape
	if none.Arena() != nil {
		t.Fatal("a nil tape's arena must be nil: the heap")
	}
}
