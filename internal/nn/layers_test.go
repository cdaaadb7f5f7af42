package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 5, 3, "fc")
	x := tensor.RandN(rng, 1, 7, 5)
	y := ForwardTensor(l, x)
	if y.Value.Rows() != 7 || y.Value.Cols() != 3 {
		t.Fatalf("output shape = %v", y.Value.Shape())
	}
	if len(l.Params()) != 2 {
		t.Fatalf("Linear should expose 2 params, got %d", len(l.Params()))
	}
}

func TestLinearGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(rng, 4, 3, "fc")
	x := tensor.RandN(rng, 1, 6, 4)
	gradCheck(t, l.Params(), func() *Node {
		return SumSquares(ForwardTensor(l, x))
	}, 1e-5)
}

func TestMLPStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := MLP(rng, "enc", 8, 16, 4)
	// Linear, ReLU, Linear
	if len(m.Layers) != 3 {
		t.Fatalf("MLP layers = %d, want 3", len(m.Layers))
	}
	if ParamCount(m) != 8*16+16+16*4+4 {
		t.Fatalf("ParamCount = %d", ParamCount(m))
	}
	x := tensor.RandN(rng, 1, 5, 8)
	y := ForwardTensor(m, x)
	if y.Value.Rows() != 5 || y.Value.Cols() != 4 {
		t.Fatalf("MLP output shape = %v", y.Value.Shape())
	}
}

func TestMLPPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MLP(rand.New(rand.NewSource(0)), "bad", 5)
}

func TestActivationPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Activation{Kind: 99}).Forward(Input(tensor.New(1, 1)))
}

func TestMLPGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MLP(rng, "enc", 3, 5, 2)
	x := tensor.RandN(rng, 1, 4, 3)
	targets := []int{0, 1, 0, 1}
	gradCheck(t, m.Params(), func() *Node {
		return CrossEntropy(ForwardTensor(m, x), targets)
	}, 1e-4)
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := MLP(rng, "m", 4, 6, 3)
	vec := Flatten(m)
	if len(vec) != ParamCount(m) {
		t.Fatalf("Flatten length %d, want %d", len(vec), ParamCount(m))
	}
	m2 := MLP(rand.New(rand.NewSource(99)), "m2", 4, 6, 3)
	if err := Unflatten(m2, vec); err != nil {
		t.Fatalf("Unflatten: %v", err)
	}
	vec2 := Flatten(m2)
	for i := range vec {
		if vec[i] != vec2[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
	if err := Unflatten(m2, vec[:3]); err == nil {
		t.Fatal("Unflatten with wrong length should error")
	}
}

func TestCopyParamsAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := MLP(rng, "a", 3, 4, 2)
	b := MLP(rand.New(rand.NewSource(8)), "b", 3, 4, 2)
	if err := CopyParams(b, a); err != nil {
		t.Fatalf("CopyParams: %v", err)
	}
	va, vb := Flatten(a), Flatten(b)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("CopyParams should make params identical")
		}
	}
	c := MLP(rng, "c", 3, 5, 2)
	if err := CopyParams(c, a); err == nil {
		t.Fatal("CopyParams with mismatched layout should error")
	}
}

func TestEMAUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	online := MLP(rng, "on", 2, 3, 2)
	target := MLP(rand.New(rand.NewSource(10)), "tg", 2, 3, 2)
	for _, p := range target.Params() {
		p.Value.Fill(0)
	}
	for _, p := range online.Params() {
		p.Value.Fill(1)
	}
	if err := EMAUpdate(target, online, 0.9); err != nil {
		t.Fatalf("EMAUpdate: %v", err)
	}
	for _, p := range target.Params() {
		for _, v := range p.Value.Data() {
			if !almost(v, 0.1, 1e-12) {
				t.Fatalf("EMA value = %v, want 0.1", v)
			}
		}
	}
	// m=1 freezes the target entirely.
	if err := EMAUpdate(target, online, 1.0); err != nil {
		t.Fatalf("EMAUpdate: %v", err)
	}
	for _, p := range target.Params() {
		for _, v := range p.Value.Data() {
			if !almost(v, 0.1, 1e-12) {
				t.Fatal("EMA with m=1 must not move")
			}
		}
	}
}

func TestVecHelpers(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	got := make([]float64, 2)
	if err := VecSubInto(got, b, a); err != nil || got[0] != 2 || got[1] != 3 {
		t.Fatalf("VecSubInto = %v, %v", got, err)
	}
	if err := VecLerpInto(got, a, b, 0.5); err != nil || got[0] != 2 || got[1] != 3.5 {
		t.Fatalf("VecLerpInto = %v, %v", got, err)
	}
	// The destination may be an operand.
	if err := VecLerpInto(got, a, got, 0.5); err != nil || got[0] != 1.5 || got[1] != 2.75 {
		t.Fatalf("VecLerpInto onto its operand = %v, %v", got, err)
	}
	// A short or a long operand is a typed error and leaves dst alone, where
	// the allocating forms panicked or silently truncated.
	for _, bad := range [][]float64{{1}, {1, 2, 3}} {
		if err := VecSubInto(got, a, bad); !errors.Is(err, ErrVecLen) {
			t.Fatalf("VecSubInto with a %d-element operand: %v, want ErrVecLen", len(bad), err)
		}
		if err := VecLerpInto(got, bad, b, 0.5); !errors.Is(err, ErrVecLen) {
			t.Fatalf("VecLerpInto with a %d-element operand: %v, want ErrVecLen", len(bad), err)
		}
		if err := VecSubInto(bad, a, b); !errors.Is(err, ErrVecLen) {
			t.Fatalf("VecSubInto into %d elements: %v, want ErrVecLen", len(bad), err)
		}
	}
	if got[0] != 1.5 || got[1] != 2.75 {
		t.Fatalf("a rejected call wrote its destination: %v", got)
	}
	if !almost(VecNorm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("VecNorm2")
	}
}

func TestSGDConvergesOnLinearRegression(t *testing.T) {
	// y = 2x + 1 learned by a 1→1 linear layer.
	rng := rand.New(rand.NewSource(12))
	l := NewLinear(rng, 1, 1, "reg")
	opt := NewSGD(l, 0.1, 0.9, 0)
	x := tensor.New(16, 1)
	y := tensor.New(16, 1)
	for i := 0; i < 16; i++ {
		xv := rng.Float64()*2 - 1
		x.Set(i, 0, xv)
		y.Set(i, 0, 2*xv+1)
	}
	for epoch := 0; epoch < 200; epoch++ {
		opt.ZeroGrad()
		loss := Scale(SumSquares(Sub(ForwardTensor(l, x), Input(y))), 1.0/16)
		if err := Backward(loss); err != nil {
			t.Fatalf("Backward: %v", err)
		}
		opt.Step()
	}
	if w := l.W.Value.At(0, 0); math.Abs(w-2) > 0.05 {
		t.Fatalf("learned w = %v, want ≈2", w)
	}
	if b := l.B.Value.At(0, 0); math.Abs(b-1) > 0.05 {
		t.Fatalf("learned b = %v, want ≈1", b)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewLinear(rng, 2, 2, "wd")
	before := VecNorm2(Flatten(l))
	opt := NewSGD(l, 0.1, 0, 0.5)
	opt.ZeroGrad() // zero gradient: only decay acts
	opt.Step()
	after := VecNorm2(Flatten(l))
	// Bias starts at zero so only W shrinks; total norm must decrease.
	if after >= before {
		t.Fatalf("weight decay should shrink norm: %v -> %v", before, after)
	}
}

func TestSGDClipGradNorm(t *testing.T) {
	l := &Linear{W: NewParam("w", 2, 2), B: NewParam("b", 1, 2)}
	opt := NewSGD(l, 0.1, 0, 0) // binds the gradients storage of their own
	l.W.Grad.Fill(3)
	l.B.Grad.Fill(4)
	pre := opt.ClipGradNorm(1.0)
	if pre <= 1 {
		t.Fatalf("pre-clip norm = %v, should exceed 1", pre)
	}
	var ss float64
	for _, p := range l.Params() {
		for _, g := range p.Grad.Data() {
			ss += g * g
		}
	}
	if got := math.Sqrt(ss); math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below threshold: untouched.
	l.W.Grad.Fill(0.01)
	l.B.Grad.Fill(0.01)
	opt.ClipGradNorm(10)
	if l.W.Grad.At(0, 0) != 0.01 {
		t.Fatal("clip should not rescale small gradients")
	}
}

func TestSGDZeroGrad(t *testing.T) {
	l := &Linear{W: NewParam("w", 2, 2), B: NewParam("b", 1, 2)}
	opt := NewSGD(l, 0.1, 0, 0)
	l.W.Grad.Fill(5)
	opt.ZeroGrad()
	for _, g := range l.W.Grad.Data() {
		if g != 0 {
			t.Fatal("ZeroGrad must clear gradients")
		}
	}
}

func TestParamInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := NewParam("p", 50, 50)
	p.InitHe(rng, 50)
	var ss float64
	for _, v := range p.Value.Data() {
		ss += v * v
	}
	std := math.Sqrt(ss / float64(p.Value.Len()))
	want := math.Sqrt(2.0 / 50)
	if math.Abs(std-want)/want > 0.15 {
		t.Fatalf("He std = %v, want ≈%v", std, want)
	}
}

// TestTapeScratchLendsUntilReset: Ints and IntRows hand out zeroed,
// non-overlapping slices for the step; a step that outgrows the buffer is
// served from the heap, Reset sizes the buffer to it, and from then on the
// same step allocates nothing. A nil tape is plain make.
func TestTapeScratchLendsUntilReset(t *testing.T) {
	tp := NewTape(tensor.NewArena())
	step := func() {
		a, b := tp.Ints(5), tp.Ints(7)
		rows := tp.IntRows(3)
		for i := range a {
			a[i] = 1
		}
		for i := range b {
			if b[i] != 0 {
				t.Fatalf("scratch not zeroed, or overlapping: %v", b)
			}
			b[i] = 2
		}
		for _, r := range rows {
			if r != nil {
				t.Fatalf("IntRows not nil rows: %v", rows)
			}
		}
		rows[0], rows[2] = a, b
		if len(a) != 5 || cap(a) != 5 || a[4] != 1 || len(tp.Tensor(2, 3).Data()) != 6 {
			t.Fatalf("lent slices: a=%v cap %d", a, cap(a))
		}
		tp.Reset()
	}
	step() // outgrows the empty buffers; Reset sizes them
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("a repeated step's scratch makes %v allocations, want 0", allocs)
	}
	var none *Tape
	if got := none.Ints(3); len(got) != 3 || len(none.IntRows(2)) != 2 || none.Tensor(1, 2).Len() != 2 {
		t.Fatal("nil tape must lend from the heap")
	}
}
