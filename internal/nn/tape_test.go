package nn

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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
	var pool TapePool
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
			tp := pool.Borrow()
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

// TestTapePoolsKeepTheirTapes: a tape goes back to the pool that lent it, so
// a kind of step with a pool of its own never hands the local updates' pool
// (BorrowTape) a tape warmed only by its own shapes, nor takes theirs; a tape
// built with NewTape goes to the local updates' pool.
func TestTapePoolsKeepTheirTapes(t *testing.T) {
	var own TapePool
	local := BorrowTape()
	mine := own.Borrow()
	if mine == local || mine.Arena() == nil || mine.Arena() == local.Arena() {
		t.Fatal("a pool of its own must lend a tape of its own, over an arena of its own")
	}
	local.Release()
	mine.Release()
	if got := BorrowTape(); got != local {
		t.Fatal("BorrowTape lent a tape another pool was given back, or not the one it lent last")
	}
	local.Release()
	if got := own.Borrow(); got != mine {
		t.Fatal("a pool did not lend back the tape it lent")
	}
	mine.Release()
	built := NewTape(tensor.NewArena())
	built.Release()
	if got := BorrowTape(); got != built {
		t.Fatal("a tape built with NewTape did not go back to the local updates' pool")
	}
	built.Release()
	if got := own.Borrow(); got != mine {
		t.Fatal("a pool lent something other than the one tape it holds")
	}
	mine.Release()
}

// TestWarmedOpsAllocateNothing: every op that builds a node — the ones
// only BYOL, SwAV or VICReg run included — costs no heap object on a warmed
// tape, forward, backward and Reset: its node, its backward pass and what
// that pass reads all live in the tape's slab, arena and scratch. Each
// node's backward pass is a package-level function, never a func literal.
func TestWarmedOpsAllocateNothing(t *testing.T) {
	const m, k, n = 8, 6, 5
	rng := rand.New(rand.NewSource(101))
	a, b := randParam(rng, "a", m, k), randParam(rng, "b", m, k)
	w, bias := randParam(rng, "w", k, n), randParam(rng, "bias", 1, n)
	protos := randParam(rng, "protos", 3, k)
	lendGrads(t, a, b, w, bias, protos)
	tp := NewTape(tensor.NewArena())
	zeros := map[*Param]*tensor.Tensor{}
	for _, p := range []*Param{a, b, w, bias, protos} {
		zeros[p] = tensor.NewLike(p.Value)
	}
	// on puts p on the tape as a step's first layer does: a taped node
	// that takes a gradient.
	on := func(p *Param) *Node { return Add(InputOn(tp, zeros[p]), p.Node()) }

	idx := []int{7, 0, 3, 3, 5}
	groups := [][]int{{0, 2, 4}, {1, 3}, {}, {5, 6, 7}}
	assign := []int{0, 1, 2, 0, 1, 2, 0, 1}
	targets := []int{0, 5, 2, 3, 1, 4, 0, 2}
	exclude := [][]int{{1}, nil, {0, 4}}
	c := tensor.RandN(rng, 1, m, k)
	q := tensor.New(m, k)
	for i := 0; i < m; i++ {
		q.Set(i, i%k, 0.75)
		q.Set(i, (i+1)%k, 0.25)
	}
	rows := []struct {
		op   string
		loss func() *Node
	}{
		{"Add", func() *Node { return Mean(Add(on(a), on(b))) }},
		{"Sub", func() *Node { return Mean(Sub(on(a), on(b))) }},
		{"Scale", func() *Node { return Mean(Scale(on(a), 0.5)) }},
		{"MatMul", func() *Node { return Mean(MatMul(on(a), w.Node())) }},
		{"MatMulTransB", func() *Node { return Mean(MatMulTransB(on(a), on(b))) }},
		{"AddBias", func() *Node { return Mean(AddBias(MatMul(on(a), w.Node()), bias.Node())) }},
		{"ReLU", func() *Node { return Mean(ReLU(on(a))) }},
		{"Tanh", func() *Node { return Mean(Tanh(on(a))) }},
		{"L2NormalizeRows", func() *Node { return Mean(L2NormalizeRows(on(a))) }},
		{"ConcatRows", func() *Node { return Mean(ConcatRows(on(a), on(b))) }},
		{"ConcatCols", func() *Node { return Mean(ConcatCols(on(a), on(b))) }},
		{"GatherRows", func() *Node { return Mean(GatherRows(on(a), idx)) }},
		{"GroupMean", func() *Node { return Mean(GroupMean(on(a), groups)) }},
		{"RowDotConst", func() *Node { return Mean(RowDotConst(on(a), c)) }},
		{"Mean", func() *Node { return Mean(on(a)) }},
		{"SumSquares", func() *Node { return SumSquares(on(a)) }},
		{"LinearAct none", func() *Node { return Mean(LinearAct(on(a), w.Node(), bias.Node(), ActNone)) }},
		{"LinearAct relu", func() *Node { return Mean(LinearAct(on(a), w.Node(), bias.Node(), ActReLU)) }},
		{"LinearAct tanh", func() *Node { return Mean(LinearAct(on(a), w.Node(), bias.Node(), ActTanh)) }},
		{"MaskedCrossEntropy", func() *Node { return MaskedCrossEntropy(on(a), targets, exclude) }},
		{"SoftCrossEntropy", func() *Node { return SoftCrossEntropy(on(a), q) }},
		{"NegCosineConst", func() *Node { return NegCosineConst(on(a), c) }},
		{"NTXent", func() *Node { return NTXent(on(a), 0.5) }},
		{"PairNTXent", func() *Node { return PairNTXent(on(a), on(b), 0.5) }},
		{"PrototypeCE", func() *Node { return PrototypeCE(on(a), on(protos), assign, 0.5) }},
		{"VarianceHinge", func() *Node { return VarianceHinge(on(a), 1, 1e-4) }},
		{"CovariancePenalty", func() *Node { return CovariancePenalty(on(a)) }},
	}
	for _, row := range rows {
		loss := row.loss()
		if !loss.requiresGrad || loss.tape != tp {
			t.Fatalf("%s: the loss is not a taped node that takes a gradient", row.op)
		}
		for _, node := range topoSort(loss) {
			if node.back == nil {
				continue
			}
			// A package-level function is named pkgpath.name; a func
			// literal pkgpath.Outer.funcN.
			name := runtime.FuncForPC(reflect.ValueOf(node.back).Pointer()).Name()
			if strings.Count(name[strings.LastIndex(name, "/")+1:], ".") != 1 {
				t.Errorf("%s: a node's backward pass is the func literal %s", row.op, name)
			}
		}
		tp.Reset()
		step := func() {
			if err := Backward(row.loss()); err != nil {
				t.Fatalf("%s: %v", row.op, err)
			}
			tp.Reset()
		}
		step() // grows the arena, slab and scratch to the op's shapes
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("%s: a warmed forward, backward and Reset make %.1f allocations, want 0", row.op, allocs)
		}
	}
}

// TestSortMarksHoldAcrossTapes: a parameter leaf is shared by the graphs of
// every tape that trains it, so the mark a topological sort leaves on it
// must never read as another sort's — not even the first sort of a fresh
// tape after the first sort of another. Every sort reaches the shared
// leaves (backward marks them cleared from there).
func TestSortMarksHoldAcrossTapes(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	layer := NewLinear(rng, 4, 3, "shared")
	x := tensor.RandN(rng, 1, 5, 4)
	for i := 0; i < 3; i++ {
		tp := NewTape(tensor.NewArena())
		reached := map[*Node]bool{}
		for _, n := range topoSort(Mean(layer.Forward(InputOn(tp, x)))) {
			reached[n] = true
		}
		if !reached[layer.W.Node()] || !reached[layer.B.Node()] {
			t.Fatalf("tape %d's sort did not reach the layer's parameter leaves", i)
		}
		tp.Reset()
	}
}
