package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"calibre/internal/tensor"
)

// specialValues are the operands the direct gradient writes must carry
// exactly as scratch-then-AddScaled does: both zeros, both infinities, quiet
// NaNs with payloads of either sign, denormals, and ordinary and extreme
// magnitudes.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8_0000_0000_0ABC), math.Float64frombits(0xFFF8_0000_0000_0123),
	math.SmallestNonzeroFloat64, -1e-310, 1.5, -2.25, 1e300, -1e-300,
}

// specialMatrix is an m×n matrix of random normals salted with
// specialValues, with row zeroRow all +0 and column zeroCol all −0 (when in
// range): the all-zero coefficient rows and columns the row kernel skips.
func specialMatrix(rng *rand.Rand, m, n, zeroRow, zeroCol int) *tensor.Tensor {
	t := tensor.RandN(rng, 1, m, n)
	d := t.Data()
	for i := range d {
		if rng.Intn(3) == 0 {
			d[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == zeroRow:
				d[i*n+j] = 0
			case j == zeroCol:
				d[i*n+j] = math.Copysign(0, -1)
			}
		}
	}
	return t
}

// gradTarget is the node a backward site writes to, in one of the three
// states addProduct tells apart.
type gradTarget int

const (
	scratchAdd  gradTarget = iota // a leaf holding +0, unmarked: scratch, then AddScaled
	markedLeaf                    // a leaf holding +0, marked cleared: written in place
	unallocated                   // an intermediate with no gradient yet: written into a dirty arena buffer
)

// target returns a node over v in state s.
func target(tp *Tape, v *tensor.Tensor, s gradTarget) *Node {
	n := &Node{Value: v, requiresGrad: true, tape: tp}
	if s != unallocated {
		n.grad, n.cleared = tensor.NewLike(v), s == markedLeaf
	}
	return n
}

// back runs op's backward pass on g after filling tp's arena with spare
// buffers of n's size full of garbage, so that whatever the pass borrows
// at that size — an unallocated gradient included — comes back dirty.
func back(tp *Tape, op, n *Node, g *tensor.Tensor) []float64 {
	spare := make([][]float64, 4)
	for i := range spare {
		spare[i] = tp.arena.Get(n.Value.Len())
		for j := range spare[i] {
			spare[i][j] = math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
		}
	}
	for _, b := range spare {
		tp.arena.Put(b)
	}
	op.back(op, g)
	return n.grad.Data()
}

// TestDirectGradientWritesMatchScratchThenAdd is the oracle for the six
// matrix-product backward sites — MatMul's two, MatMulTransB's two and
// LinearAct's weight and input: writing the product straight into a
// gradient nothing has added to yet gives the bits that computing it into
// scratch and adding it to +0 gives, special values included, at a serial
// and at a pool-split shape, and for MatMulTransB(z, z), whose second
// branch adds to what the first wrote.
func TestDirectGradientWritesMatchScratchThenAdd(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(2)
	// A site runs its op's backward pass on upstream gradient g with the
	// other operand taking no gradient, and returns the target's gradient.
	type site struct {
		name string
		run  func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64
	}
	operands := func(seed int64, ra, ca, rb, cb int) (*tensor.Tensor, *tensor.Tensor, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		return specialMatrix(rng, ra, ca, 1, 2), specialMatrix(rng, rb, cb, 2, 1), rng
	}
	sites := []site{
		{"MatMul a", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			av, bv, rng := operands(seed, m, k, k, n)
			a := target(tp, av, s)
			return back(tp, MatMul(a, InputOn(tp, bv)), a, specialMatrix(rng, m, n, 0, 3))
		}},
		{"MatMul b", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			av, bv, rng := operands(seed, m, k, k, n)
			b := target(tp, bv, s)
			return back(tp, MatMul(InputOn(tp, av), b), b, specialMatrix(rng, m, n, 0, 3))
		}},
		{"MatMulTransB a", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			av, bv, rng := operands(seed, m, k, n, k)
			a := target(tp, av, s)
			return back(tp, MatMulTransB(a, InputOn(tp, bv)), a, specialMatrix(rng, m, n, 0, 3))
		}},
		{"MatMulTransB b", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			av, bv, rng := operands(seed, m, k, n, k)
			b := target(tp, bv, s)
			return back(tp, MatMulTransB(InputOn(tp, av), b), b, specialMatrix(rng, m, n, 0, 3))
		}},
		{"MatMulTransB z·zᵀ", func(tp *Tape, s gradTarget, m, k, _ int, seed int64) []float64 {
			zv, _, rng := operands(seed, m, k, 1, 1)
			z := target(tp, zv, s)
			return back(tp, MatMulTransB(z, z), z, specialMatrix(rng, m, m, 0, 3))
		}},
		{"LinearAct x", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			xv, wv, rng := operands(seed, m, k, k, n)
			x := target(tp, xv, s)
			return back(tp, LinearAct(x, InputOn(tp, wv), InputOn(tp, tensor.New(1, n)), ActNone), x, specialMatrix(rng, m, n, 0, 3))
		}},
		{"LinearAct w", func(tp *Tape, s gradTarget, m, k, n int, seed int64) []float64 {
			xv, wv, rng := operands(seed, m, k, k, n)
			w := target(tp, wv, s)
			return back(tp, LinearAct(InputOn(tp, xv), w, InputOn(tp, tensor.New(1, n)), ActReLU), w, specialMatrix(rng, m, n, 0, 3))
		}},
	}
	shapes := [][3]int{{6, 5, 7}, {9, 4, 4}, {64, 160, 160}} // the last is split across the pool
	for _, st := range sites {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 3; seed++ {
				tp := NewTape(tensor.NewArena())
				want := append([]float64(nil), st.run(tp, scratchAdd, sh[0], sh[1], sh[2], seed)...)
				for _, s := range []gradTarget{markedLeaf, unallocated} {
					if got := st.run(tp, s, sh[0], sh[1], sh[2], seed); !sameBits(got, want) {
						t.Fatalf("%s %v seed %d: the direct write (state %d) differs from scratch-then-AddScaled", st.name, sh, seed, s)
					}
				}
				tp.Reset()
			}
		}
	}
}

// TestSharedEncoderAddsItsSecondView: an encoder applied to two views gets
// two products per weight gradient in a pass; on cleared gradients the first
// is written in place and the second added onto it — one scratch buffer
// fewer than plain Backward takes, and the same bits.
func TestSharedEncoderAddsItsSecondView(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc := NewLinear(rng, 6, 4, "enc")
	grads := lendGrads(t, enc.Params()...)
	x1, x2 := tensor.RandN(rng, 1, 3, 6), tensor.RandN(rng, 1, 3, 6)
	tp := NewTape(tensor.NewArena())
	pass := func(direct bool, views ...*tensor.Tensor) (gets int64, g []float64) {
		var loss *Node
		for _, x := range views {
			l := SumSquares(enc.Forward(InputOn(tp, x)))
			if loss == nil {
				loss = l
			} else {
				loss = Add(loss, l)
			}
		}
		clear(grads)
		before := tp.arena.Stats().Gets
		var err error
		if direct {
			err = backward(loss, grads)
		} else {
			err = Backward(loss)
		}
		if err != nil {
			t.Fatal(err)
		}
		gets = tp.arena.Stats().Gets - before
		tp.Reset()
		return gets, append([]float64(nil), grads...)
	}
	plainGets, want := pass(false, x1, x2)
	directGets, got := pass(true, x1, x2)
	if !sameBits(got, want) {
		t.Fatal("on cleared gradients the two views' sum differs from plain Backward's")
	}
	if plainGets-directGets != 1 {
		t.Fatalf("plain Backward took %d arena buffers, the pass on cleared gradients %d: want exactly the first view's weight scratch fewer", plainGets, directGets)
	}
	if _, one := pass(true, x1); sameBits(one, got) {
		t.Fatal("the second view added nothing: it overwrote the first")
	}
}

// TestGradCallTakesTheMarkAway: a leaf whose gradient an op reached through
// Grad before its matrix product did — here Add's backward, which runs
// first — has the product added, not written over that contribution.
func TestGradCallTakesTheMarkAway(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := NewParam("w", 4, 4)
	w.InitHe(rng, 4)
	grads := lendGrads(t, w)
	x := tensor.RandN(rng, 1, 4, 4)
	run := func(direct bool) []float64 {
		wn := w.Node()
		loss := Mean(Add(MatMul(Input(x), wn), wn))
		clear(grads)
		var err error
		if direct {
			err = backward(loss, grads)
		} else {
			err = Backward(loss)
		}
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), grads...)
	}
	if !sameBits(run(true), run(false)) {
		t.Fatal("the product overwrote what Add had added to the marked leaf")
	}
}

// TestPlainBackwardAddsToDirtyGradients: Backward outside StepLoop adds to
// whatever the gradients hold — tests and the kernel benchmark call it on
// gradients they manage themselves. The arithmetic is exact (integers, and
// an upstream gradient of 1/16), so the sum is checked element for element.
func TestPlainBackwardAddsToDirtyGradients(t *testing.T) {
	w := NewParam("w", 4, 4)
	x := tensor.New(4, 4)
	for i, d := 0, w.Value.Data(); i < len(d); i++ {
		d[i] = float64(i%5 - 2)
		x.Data()[i] = float64(i%3 - 1)
	}
	grads := lendGrads(t, w)
	grad := func() []float64 {
		if err := Backward(Mean(MatMul(Input(x), w.Node()))); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), grads...)
	}
	clean := grad()
	for i := range grads {
		grads[i] = float64(3 * i)
	}
	dirty := grad()
	for i := range dirty {
		if want := float64(3*i) + clean[i]; dirty[i] != want {
			t.Fatalf("element %d: Backward left %v over a gradient holding %v, want the sum %v", i, dirty[i], float64(3*i), want)
		}
	}
}

// TestStepArenaHoldsNoWeightShapedScratch: a StepLoop step writes every
// weight gradient where it is kept, so what a new tape's arena grows by in
// its first step is the batch's activations and their gradients — less than
// the first weight alone; with scratch per weight gradient it held them all.
func TestStepArenaHoldsNoWeightShapedScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := MLP(rng, "m", 256, 128, 10)
	x := tensor.RandN(rng, 1, 4, 256)
	tp := NewTape(tensor.NewArena())
	loop := StepLoop{
		Tape: tp,
		Opt:  NewSGD(m, 0.1, 0, 0), // gradient storage of its own
		Loss: func() (*Node, error) { return CrossEntropy(m.Forward(InputOn(tp, x)), []int{0, 1, 2, 3}), nil },
	}
	loop.Grads = Grads(m)
	step := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := loop.Run(1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := step()
	arena := cold - step()
	if weight := uint64(8 * 256 * 128); arena >= weight {
		t.Fatalf("a step's arena grew by %d bytes, the first weight is %d: it keeps weight-shaped scratch", arena, weight)
	}
}
