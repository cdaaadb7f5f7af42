package nn

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

func TestGradVarianceHinge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randParam(rng, "x", 6, 4)
	// Shrink values so columns sit below the hinge target and gradients
	// flow (hinge active).
	for i, d := 0, x.Value.Data(); i < len(d); i++ {
		d[i] *= 0.3
	}
	gradCheck(t, []*Param{x}, func() *Node {
		return VarianceHinge(x.Node(), 1.0, 1e-4)
	}, 1e-4)
}

func TestVarianceHingeInactiveAboveGamma(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := NewParam("x", 20, 3)
	lendGrads(t, x)
	for i, d := 0, x.Value.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64() * 10 // std ≈ 10 ≫ γ=1
	}
	l := VarianceHinge(x.Node(), 1.0, 1e-4)
	if got := l.Value.At(0, 0); got != 0 {
		t.Fatalf("hinge should be inactive, loss = %v", got)
	}
	x.ZeroGrad()
	if err := Backward(l); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	for _, g := range x.Grad.Data() {
		if g != 0 {
			t.Fatal("inactive hinge must produce zero gradient")
		}
	}
}

func TestVarianceHingeCollapsedColumns(t *testing.T) {
	x := NewParam("x", 10, 2)
	x.Value.Fill(3) // zero variance everywhere
	l := VarianceHinge(x.Node(), 1.0, 1e-6)
	// Both columns fully collapsed: loss ≈ γ - sqrt(eps) ≈ 1.
	if got := l.Value.At(0, 0); math.Abs(got-1) > 0.01 {
		t.Fatalf("collapsed hinge loss = %v, want ≈1", got)
	}
}

func TestVarianceHingeTinyBatch(t *testing.T) {
	x := NewParam("x", 1, 3)
	lendGrads(t, x)
	l := VarianceHinge(x.Node(), 1.0, 1e-4)
	if l.Value.At(0, 0) != 0 {
		t.Fatal("n<2 variance hinge should be zero")
	}
	if err := Backward(l); err != nil {
		t.Fatalf("Backward on degenerate hinge: %v", err)
	}
}

func TestGradCovariancePenalty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randParam(rng, "x", 7, 4)
	gradCheck(t, []*Param{x}, func() *Node {
		return CovariancePenalty(x.Node())
	}, 1e-4)
}

func TestCovariancePenaltyDecorrelatedIsZero(t *testing.T) {
	// Columns proportional to orthogonal patterns with zero empirical
	// covariance.
	x := NewParam("x", 4, 2)
	x.Value.SetRow(0, []float64{1, 1})
	x.Value.SetRow(1, []float64{1, -1})
	x.Value.SetRow(2, []float64{-1, 1})
	x.Value.SetRow(3, []float64{-1, -1})
	l := CovariancePenalty(x.Node())
	if got := l.Value.At(0, 0); math.Abs(got) > 1e-12 {
		t.Fatalf("decorrelated penalty = %v, want 0", got)
	}
}

func TestCovariancePenaltyCorrelatedPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := NewParam("x", 10, 3)
	for i := 0; i < 10; i++ {
		v := rng.NormFloat64()
		x.Value.SetRow(i, []float64{v, v, v}) // perfectly correlated columns
	}
	l := CovariancePenalty(x.Node())
	if l.Value.At(0, 0) <= 0 {
		t.Fatalf("correlated penalty = %v, want > 0", l.Value.At(0, 0))
	}
}

func TestCovariancePenaltyTinyBatch(t *testing.T) {
	x := NewParam("x", 1, 3)
	l := CovariancePenalty(x.Node())
	if l.Value.At(0, 0) != 0 {
		t.Fatal("n<2 covariance penalty should be zero")
	}
}

// Minimizing the VICReg-style combination must spread variance across
// dimensions: train a linear map so a collapsed input recovers variance.
func TestVICRegTermsTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLinear(rng, 4, 4, "vic")
	opt := NewSGD(l, 0.5, 0.9, 0)
	x := tensor.RandN(rng, 0.2, 16, 4) // low-variance inputs
	var first, last float64
	for step := 0; step < 200; step++ {
		out := ForwardTensor(l, x)
		loss := Add(VarianceHinge(out, 1.0, 1e-4), CovariancePenalty(out))
		if step == 0 {
			first = loss.Value.At(0, 0)
		}
		last = loss.Value.At(0, 0)
		opt.ZeroGrad()
		if err := Backward(loss); err != nil {
			t.Fatalf("Backward: %v", err)
		}
		opt.Step()
	}
	if !(last < first*0.8) {
		t.Fatalf("VICReg terms should be minimizable: %v -> %v", first, last)
	}
}
