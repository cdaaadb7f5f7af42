package nn

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

// fusedTestNet builds a Sequential exercising all three fusion shapes:
// Linear+ReLU, Linear+Tanh, and a trailing Linear with no activation.
func fusedTestNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return &Sequential{Layers: []Layer{
		NewLinear(rng, 8, 16, "f.l0"),
		&Activation{Kind: ActReLU},
		NewLinear(rng, 16, 12, "f.l1"),
		&Activation{Kind: ActTanh},
		NewLinear(rng, 12, 4, "f.l2"),
	}}
}

func runNet(t *testing.T, net *Sequential, x *tensor.Tensor) (loss float64, value, grads []float64) {
	t.Helper()
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	out := net.Forward(Input(x))
	l := SumSquares(out)
	if err := Backward(l); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	for _, p := range net.Params() {
		grads = append(grads, p.Grad.Data()...)
	}
	return l.Value.At(0, 0), append([]float64(nil), out.Value.Data()...), grads
}

// TestFusedBitIdenticalToUnfused is the determinism pin for the fused
// LinearAct kernels: with identical parameters and input, the fused and
// unfused (MatMul+AddBias+activation) paths produce bit-identical forward
// values, loss, and parameter gradients — 0 ULP, at every kernel worker
// count.
func TestFusedBitIdenticalToUnfused(t *testing.T) {
	defer func() { fused = true }()
	defer tensor.SetWorkers(tensor.Workers())

	net := fusedTestNet(41)
	lendGrads(t, net.Params()...)
	x := tensor.RandN(rand.New(rand.NewSource(42)), 1, 7, 8)

	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)

		fused = false
		wantLoss, wantVal, wantGrads := runNet(t, net, x)
		fused = true
		gotLoss, gotVal, gotGrads := runNet(t, net, x)

		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("workers=%d: fused loss %v, unfused %v", workers, gotLoss, wantLoss)
		}
		for i := range wantVal {
			if math.Float64bits(gotVal[i]) != math.Float64bits(wantVal[i]) {
				t.Fatalf("workers=%d: forward value %d differs: %v vs %v", workers, i, gotVal[i], wantVal[i])
			}
		}
		for i := range wantGrads {
			if math.Float64bits(gotGrads[i]) != math.Float64bits(wantGrads[i]) {
				t.Fatalf("workers=%d: gradient %d differs: %v vs %v", workers, i, gotGrads[i], wantGrads[i])
			}
		}
	}
}

// TestLinearActMatchesUnfusedChain checks the kernel directly (not through
// Sequential's peephole) for each activation kind, including the gradient
// flowing to a taped input node.
func TestLinearActMatchesUnfusedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randParam(rng, "w", 6, 3)
	b := randParam(rng, "b", 1, 3)
	x := tensor.RandN(rng, 1, 4, 6)
	lendGrads(t, w, b)

	unfused := func(xn *Node, act ActKind) *Node {
		pre := AddBias(MatMul(xn, w.Node()), b.Node())
		switch act {
		case ActReLU:
			return ReLU(pre)
		case ActTanh:
			return Tanh(pre)
		default:
			return pre
		}
	}
	for _, act := range []ActKind{ActNone, ActReLU, ActTanh} {
		w.ZeroGrad()
		b.ZeroGrad()
		ref := unfused(Input(x), act)
		if err := Backward(SumSquares(ref)); err != nil {
			t.Fatalf("unfused backward: %v", err)
		}
		wantW := append([]float64(nil), w.Grad.Data()...)
		wantB := append([]float64(nil), b.Grad.Data()...)

		w.ZeroGrad()
		b.ZeroGrad()
		got := LinearAct(Input(x), w.Node(), b.Node(), act)
		if err := Backward(SumSquares(got)); err != nil {
			t.Fatalf("fused backward: %v", err)
		}
		for i := range ref.Value.Data() {
			if math.Float64bits(got.Value.Data()[i]) != math.Float64bits(ref.Value.Data()[i]) {
				t.Fatalf("act=%d: value %d differs", act, i)
			}
		}
		for i := range wantW {
			if math.Float64bits(w.Grad.Data()[i]) != math.Float64bits(wantW[i]) {
				t.Fatalf("act=%d: W grad %d differs", act, i)
			}
		}
		for i := range wantB {
			if math.Float64bits(b.Grad.Data()[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("act=%d: B grad %d differs", act, i)
			}
		}
	}
}

func TestLinearActShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := randParam(rng, "w", 6, 3)
	b := randParam(rng, "b", 1, 3)
	x := Input(tensor.RandN(rng, 1, 4, 5)) // 5 != 6
	assertPanics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	assertPanics("mismatched input", func() { LinearAct(x, w.Node(), b.Node(), ActNone) })
	x6 := Input(tensor.RandN(rng, 1, 4, 6))
	bad := randParam(rng, "bad", 1, 2)
	assertPanics("mismatched bias", func() { LinearAct(x6, w.Node(), bad.Node(), ActNone) })
	assertPanics("unknown activation", func() { LinearAct(x6, w.Node(), b.Node(), ActKind(99)) })
}

// TestTapeLifecycle pins the tape/arena contract the training loop relies
// on: every buffer a taped graph allocates is tracked, Reset returns them
// all, and the next step's graph is served from the free list.
func TestTapeLifecycle(t *testing.T) {
	arena := tensor.NewArena()
	tp := NewTape(arena)
	net := fusedTestNet(51)
	lendGrads(t, net.Params()...)
	x := tensor.RandN(rand.New(rand.NewSource(52)), 1, 5, 8)

	step := func() float64 {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		loss := SumSquares(net.Forward(InputOn(tp, x)))
		if err := Backward(loss); err != nil {
			t.Fatalf("Backward: %v", err)
		}
		return loss.Value.At(0, 0)
	}

	l1 := step()
	if len(tp.taken) == 0 {
		t.Fatal("taped graph tracked no tensors")
	}
	if arena.Stats().Outstanding == 0 {
		t.Fatal("taped graph borrowed nothing from the arena")
	}
	tp.Reset()
	if len(tp.taken) != 0 {
		t.Fatalf("%d tensors tracked after Reset", len(tp.taken))
	}
	if out := arena.Stats().Outstanding; out != 0 {
		t.Fatalf("arena outstanding = %d after Reset", out)
	}

	before := arena.Stats()
	l2 := step()
	tp.Reset()
	after := arena.Stats()
	if after.Hits == before.Hits {
		t.Fatal("second step hit the free list zero times")
	}
	// Params were not stepped between the two passes, so the loss must be
	// bit-identical — recycled buffers behave exactly like fresh ones.
	if math.Float64bits(l1) != math.Float64bits(l2) {
		t.Fatalf("arena-recycled step loss %v differs from first step %v", l2, l1)
	}

	// Nil tapes and tapes over nil arenas degrade to plain allocation.
	var nilTape *Tape
	nilTape.Reset()
	heapTape := NewTape(nil)
	loss := SumSquares(net.Forward(InputOn(heapTape, x)))
	if loss == nil || len(heapTape.taken) != 0 {
		t.Fatalf("heap tape tracked %d tensors, want 0", len(heapTape.taken))
	}
	heapTape.Reset()
}

// reluTable are the values ReLU's three formulations must agree on: both
// zeros, both infinities, NaN of either sign, the smallest denormals, the
// largest finite magnitudes and two ordinary numbers.
var reluTable = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.5, -1.5,
}

func wantBits(t *testing.T, what string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("%s: got %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestReLUSpecialValues holds the fused forward, the fused backward mask and
// the unfused chain to the plain `if` formulation, bit for bit, on
// reluTable: v <= 0 gives +0 and anything else — NaN included — passes
// through; a gradient passes where the output is > 0 and is +0 elsewhere
// (±0, NaN). First the vector sweeps LinearAct runs —
// tensor.AddRowVecReLU and tensor.ReLUGradInto, the implementation this
// build selects — on every value and every (gradient, output) pair (a −0
// pre-activation cannot come out of a product, whose sums start at +0, so
// only here is it seen), then both graph paths with the table as
// pre-activations and, rotated through every offset, as upstream gradient.
func TestReLUSpecialValues(t *testing.T) {
	plainReLU := func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		return v
	}
	plainMask := func(g, y float64) float64 {
		if y > 0 {
			return g
		}
		return 0
	}
	n := len(reluTable)
	// Each value at every position of a row, so that it meets the vector
	// body and the scalar tail; a −0 bias leaves it as it is.
	pre, negZero := tensor.New(n, n), make([]float64, n)
	for j := range negZero {
		negZero[j] = math.Copysign(0, -1)
	}
	for i := range n {
		for j := range n {
			pre.Set(i, j, reluTable[(i+j)%n])
		}
	}
	acts := pre.Clone()
	tensor.AddRowVecReLU(acts, negZero)
	for i, v := range pre.Data() {
		wantBits(t, "AddRowVecReLU", plainReLU(v), acts.Data()[i])
	}
	for shift := range n {
		g, masked := tensor.New(n, n), tensor.New(n, n)
		for i := range g.Data() {
			g.Data()[i] = reluTable[(i+shift)%n]
		}
		tensor.ReLUGradInto(masked, g, pre)
		for i, v := range pre.Data() {
			wantBits(t, "ReLUGradInto", plainMask(g.Data()[i], v), masked.Data()[i])
		}
	}

	x := tensor.New(1, 1)
	x.Data()[0] = 1
	w, b := NewParam("w", 1, n), NewParam("b", 1, n)
	lendGrads(t, w, b)
	copy(w.Value.Data(), reluTable)
	for j := range b.Value.Data() {
		b.Value.Data()[j] = math.Copysign(0, -1) // v + (−0) is v
	}
	for shift := 0; shift < n; shift++ {
		g := tensor.New(1, n)
		y, bGrad := make([]float64, n), make([]float64, n)
		for j, v := range reluTable {
			g.Data()[j] = reluTable[(j+shift)%n]
			y[j] = plainReLU(0 + 1*v + b.Value.Data()[j])
			bGrad[j] += plainMask(g.Data()[j], y[j])
		}
		check := func(path string, out *Node) {
			for j := range y {
				wantBits(t, path+" forward", y[j], out.Value.Data()[j])
				wantBits(t, path+" bias gradient", bGrad[j], b.Grad.Data()[j])
				wantBits(t, path+" weight gradient", bGrad[j], w.Grad.Data()[j]) // xᵀ·gPre with x = [1]
			}
		}

		w.ZeroGrad()
		b.ZeroGrad()
		out := LinearAct(Input(x), w.Node(), b.Node(), ActReLU)
		out.back(out, g)
		check("fused", out)

		w.ZeroGrad()
		b.ZeroGrad()
		prod := MatMul(Input(x), w.Node())
		pre := AddBias(prod, b.Node())
		out = ReLU(pre)
		out.back(out, g)
		pre.back(pre, pre.Grad())
		prod.back(prod, prod.Grad())
		check("unfused", out)
	}
}
