package nn

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/tensor"
)

// gradCheck numerically verifies the analytic gradient of loss() with
// respect to every element of every param in params. loss must rebuild the
// graph from current param values and return the scalar loss node.
func gradCheck(t *testing.T, params []*Param, loss func() *Node, tol float64) {
	t.Helper()
	build := func() *Node { return loss() }
	lendGrads(t, params...)

	// Analytic gradients.
	for _, p := range params {
		p.ZeroGrad()
	}
	l := build()
	if err := Backward(l); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Grad.Data()...)
	}

	const h = 1e-6
	for pi, p := range params {
		d := p.Value.Data()
		for j := range d {
			orig := d[j]
			d[j] = orig + h
			lp := build().Value.At(0, 0)
			d[j] = orig - h
			lm := build().Value.At(0, 0)
			d[j] = orig
			num := (lp - lm) / (2 * h)
			got := analytic[pi][j]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > tol {
				t.Fatalf("param %q[%d]: analytic %g vs numeric %g", p.Name, j, got, num)
			}
		}
	}
}

func randParam(rng *rand.Rand, name string, shape ...int) *Param {
	p := NewParam(name, shape...)
	for i, d := 0, p.Value.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64()
	}
	return p
}

func TestBackwardRequiresScalar(t *testing.T) {
	p := NewParam("p", 2, 2)
	if err := Backward(p.Node()); err == nil {
		t.Fatal("Backward on non-scalar should error")
	}
}

func TestBackwardNoGradPath(t *testing.T) {
	x := Input(data.Batch([][]float64{{1, 2}, {3, 4}}))
	l := Mean(x)
	if err := Backward(l); err != nil {
		t.Fatalf("Backward on constant graph should be a no-op, got %v", err)
	}
}

func TestGradMatMulAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := randParam(rng, "w", 3, 4)
	b := randParam(rng, "b", 1, 4)
	x := tensor.RandN(rng, 1, 5, 3)
	gradCheck(t, []*Param{w, b}, func() *Node {
		return Mean(AddBias(MatMul(Input(x), w.Node()), b.Node()))
	}, 1e-5)
}

func TestGradMatMulBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, "a", 4, 3)
	b := randParam(rng, "b", 3, 2)
	gradCheck(t, []*Param{a, b}, func() *Node {
		return SumSquares(MatMul(a.Node(), b.Node()))
	}, 1e-5)
}

func TestGradMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, "a", 4, 3)
	b := randParam(rng, "b", 5, 3)
	gradCheck(t, []*Param{a, b}, func() *Node {
		return SumSquares(MatMulTransB(a.Node(), b.Node()))
	}, 1e-5)
}

func TestGradAddSubScaleMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, "a", 3, 3)
	b := randParam(rng, "b", 3, 3)
	gradCheck(t, []*Param{a, b}, func() *Node {
		sum := Add(a.Node(), b.Node())
		diff := Sub(a.Node(), b.Node())
		return Add(Scale(SumSquares(sum), 2.5), Mean(diff))
	}, 1e-5)
}

func TestGradReLUTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, "a", 4, 4)
	// Nudge values away from the ReLU kink where the numeric gradient is
	// undefined.
	for i, d := 0, a.Value.Data(); i < len(d); i++ {
		if math.Abs(d[i]) < 1e-3 {
			d[i] = 0.1
		}
	}
	gradCheck(t, []*Param{a}, func() *Node {
		return Mean(Tanh(ReLU(a.Node())))
	}, 1e-5)
}

func TestGradL2NormalizeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, "a", 4, 5)
	w := tensor.RandN(rng, 1, 4, 5)
	gradCheck(t, []*Param{a}, func() *Node {
		return Mean(RowDotConst(L2NormalizeRows(a.Node()), w))
	}, 1e-5)
}

func TestL2NormalizeZeroRowPassThrough(t *testing.T) {
	p := NewParam("p", 2, 3)
	lendGrads(t, p)
	p.Value.SetRow(0, []float64{3, 4, 0})
	// row 1 stays zero
	out := L2NormalizeRows(p.Node())
	if !almost(out.Value.At(0, 0), 0.6, 1e-12) {
		t.Fatalf("row0 = %v", out.Value.Row(0))
	}
	if out.Value.At(1, 0) != 0 {
		t.Fatalf("zero row should stay zero: %v", out.Value.Row(1))
	}
	l := Mean(out)
	if err := Backward(l); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	// Zero-row gradient should be pass-through (1/6 per element for Mean).
	if !almost(p.Grad.At(1, 0), 1.0/6, 1e-12) {
		t.Fatalf("zero-row grad = %v", p.Grad.Row(1))
	}
}

func TestGradConcatRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, "a", 2, 3)
	b := randParam(rng, "b", 4, 3)
	w := tensor.RandN(rng, 1, 6, 3)
	gradCheck(t, []*Param{a, b}, func() *Node {
		return Mean(RowDotConst(ConcatRows(a.Node(), b.Node()), w))
	}, 1e-5)

	c := randParam(rng, "c", 3, 2)
	d := randParam(rng, "d", 3, 4)
	w2 := tensor.RandN(rng, 1, 3, 6)
	gradCheck(t, []*Param{c, d}, func() *Node {
		return Mean(RowDotConst(ConcatCols(c.Node(), d.Node()), w2))
	}, 1e-5)
}

func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, "a", 5, 3)
	idx := []int{0, 2, 2, 4} // duplicate index exercises accumulation
	w := tensor.RandN(rng, 1, 4, 3)
	gradCheck(t, []*Param{a}, func() *Node {
		return Mean(RowDotConst(GatherRows(a.Node(), idx), w))
	}, 1e-5)
}

func TestGradGroupMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam(rng, "a", 6, 4)
	groups := [][]int{{0, 1, 2}, {3}, {}, {4, 5}}
	w := tensor.RandN(rng, 1, 4, 4)
	gradCheck(t, []*Param{a}, func() *Node {
		return Mean(RowDotConst(GroupMean(a.Node(), groups), w))
	}, 1e-5)
}

func TestGroupMeanEmptyGroupIsZero(t *testing.T) {
	a := NewParam("a", 2, 2)
	a.Value.Fill(3)
	out := GroupMean(a.Node(), [][]int{{}, {0, 1}})
	if out.Value.At(0, 0) != 0 || out.Value.At(0, 1) != 0 {
		t.Fatalf("empty group row should be zero: %v", out.Value.Row(0))
	}
	if out.Value.At(1, 0) != 3 {
		t.Fatalf("group mean = %v", out.Value.Row(1))
	}
}

func TestGradRowDotConst(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, "a", 4, 3)
	c := tensor.RandN(rng, 1, 4, 3)
	gradCheck(t, []*Param{a}, func() *Node {
		return Mean(RowDotConst(a.Node(), c))
	}, 1e-5)
}

func TestGradMeanSumSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, "a", 3, 3)
	gradCheck(t, []*Param{a}, func() *Node {
		return Add(Mean(a.Node()), Scale(SumSquares(a.Node()), 0.1))
	}, 1e-5)
}

func TestParamSharedAcrossTwoForwards(t *testing.T) {
	// Using the same parameter twice in one graph (two augmented views)
	// must accumulate both contributions.
	rng := rand.New(rand.NewSource(12))
	w := randParam(rng, "w", 3, 2)
	x1 := tensor.RandN(rng, 1, 4, 3)
	x2 := tensor.RandN(rng, 1, 4, 3)
	gradCheck(t, []*Param{w}, func() *Node {
		y1 := MatMul(Input(x1), w.Node())
		y2 := MatMul(Input(x2), w.Node())
		return SumSquares(Add(y1, y2))
	}, 1e-5)
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := randParam(rng, "logits", 5, 4)
	targets := []int{0, 3, 1, 2, 2}
	gradCheck(t, []*Param{logits}, func() *Node {
		return CrossEntropy(logits.Node(), targets)
	}, 1e-5)
}

func TestGradMaskedCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	logits := randParam(rng, "logits", 4, 4)
	targets := []int{1, 0, 3, 2}
	exclude := [][]int{{0}, {1}, {2}, {3}} // mask diagonal
	gradCheck(t, []*Param{logits}, func() *Node {
		return MaskedCrossEntropy(logits.Node(), targets, exclude)
	}, 1e-5)
}

func TestCrossEntropyValueKnown(t *testing.T) {
	// Uniform logits over n classes give loss = ln(n).
	logits := NewParam("l", 3, 4)
	l := CrossEntropy(logits.Node(), []int{0, 1, 2})
	if !almost(l.Value.At(0, 0), math.Log(4), 1e-12) {
		t.Fatalf("uniform CE = %v, want ln4", l.Value.At(0, 0))
	}
}

func TestGradSoftCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := randParam(rng, "logits", 4, 5)
	q := tensor.New(4, 5)
	for i := 0; i < 4; i++ {
		row := make([]float64, 5)
		var s float64
		for j := range row {
			row[j] = rng.Float64()
			s += row[j]
		}
		for j := range row {
			row[j] /= s
		}
		q.SetRow(i, row)
	}
	gradCheck(t, []*Param{logits}, func() *Node {
		return SoftCrossEntropy(logits.Node(), q)
	}, 1e-5)
}

func TestGradNegCosineConst(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randParam(rng, "x", 4, 6)
	tgt := tensor.RandN(rng, 1, 4, 6)
	gradCheck(t, []*Param{x}, func() *Node {
		return NegCosineConst(x.Node(), tgt)
	}, 1e-5)
}

func TestNegCosinePerfectAlignmentIsZero(t *testing.T) {
	x := NewParam("x", 2, 3)
	x.Value.SetRow(0, []float64{1, 2, 3})
	x.Value.SetRow(1, []float64{-1, 0, 1})
	tgt := tensor.Scale(x.Value, 2) // same directions, different magnitude
	l := NegCosineConst(x.Node(), tgt)
	if !almost(l.Value.At(0, 0), 0, 1e-12) {
		t.Fatalf("aligned NegCosine = %v, want 0", l.Value.At(0, 0))
	}
}

func TestGradNTXent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := randParam(rng, "h", 8, 5) // 2N=8 rows
	gradCheck(t, []*Param{h}, func() *Node {
		return NTXent(h.Node(), 0.5)
	}, 1e-4)
}

func TestNTXentDecreasesWithAlignment(t *testing.T) {
	// Perfectly aligned positive pairs should have lower loss than random
	// pairs.
	rng := rand.New(rand.NewSource(18))
	n := 6
	aligned := tensor.New(2*n, 4)
	random := tensor.New(2*n, 4)
	for i := 0; i < n; i++ {
		v := make([]float64, 4)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		aligned.SetRow(i, v)
		aligned.SetRow(i+n, v)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		random.SetRow(i, v)
		r2 := make([]float64, 4)
		for j := range r2 {
			r2[j] = rng.NormFloat64()
		}
		random.SetRow(i+n, r2)
	}
	la := NTXent(Input(aligned), 0.5).Value.At(0, 0)
	lr := NTXent(Input(random), 0.5).Value.At(0, 0)
	if la >= lr {
		t.Fatalf("aligned NTXent %v should be < random %v", la, lr)
	}
}

func TestGradPrototypeCE(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	z := randParam(rng, "z", 6, 4)
	assign := []int{0, 0, 1, 1, 2, 2}
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}}
	gradCheck(t, []*Param{z}, func() *Node {
		zn := z.Node()
		protos := GroupMean(zn, groups)
		return PrototypeCE(zn, protos, assign, 0.5)
	}, 1e-4)
}

func TestGradPairNTXent(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randParam(rng, "a", 3, 4)
	b := randParam(rng, "b", 3, 4)
	gradCheck(t, []*Param{a, b}, func() *Node {
		return PairNTXent(a.Node(), b.Node(), 0.7)
	}, 1e-4)
}

func TestAccuracy(t *testing.T) {
	logits := data.Batch([][]float64{
		{2, 1, 0},
		{0, 5, 1},
		{1, 0, 9},
		{3, 2, 1},
	})
	got := Accuracy(logits, []int{0, 1, 2, 2})
	if !almost(got, 0.75, 1e-12) {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
	if Accuracy(tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
