package nn

import (
	"math"

	"calibre/internal/param"
	"calibre/internal/tensor"
)

// SGD is stochastic gradient descent with optional classical momentum and
// decoupled weight decay. The zero value is unusable; construct with NewSGD.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	// spans is the parameters' storage as runs of consecutive parameters —
	// one run for a model carved from one Layout, or for the head or the
	// encoder of one — so Step is one tensor.SGDStep call per run and the
	// clip's passes are one sweep per run.
	spans []span
	// velocity is one vector over all spans, borrowed on the first momentum
	// step (param.Borrow) and handed back by Release.
	velocity []float64
}

// span is one run of parameters: their values and their gradients, element
// for element, and the run's first parameter, by which Step notices that the
// parameters were laid out again (see Values) and the run is dead storage.
type span struct {
	value, grad []float64
	head        *Param
}

// NewSGD creates an SGD optimizer over m's parameters, which may be any
// subset of a model's (a frozen encoder leaves the head's). It binds to the
// parameters' storage as it is now: inside a local update, build it after
// the update's gradients are lent (Tape.LendGrads). Parameters whose
// gradients have no storage — a module stepped by hand, outside any local
// update — get one vector of their own, which they keep; this is the only
// storage NewSGD allocates.
func NewSGD(m Module, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
	ps := m.Params()
	ownGrads(ps)
	for _, p := range ps {
		v, g := p.Value.Data(), p.Grad.Data()
		if len(v) == 0 {
			continue
		}
		if k := len(s.spans) - 1; k >= 0 && follows(s.spans[k].value, v) && follows(s.spans[k].grad, g) {
			last := &s.spans[k]
			last.value, last.grad = last.value[:len(last.value)+len(v)], last.grad[:len(last.grad)+len(g)]
			continue
		}
		s.spans = append(s.spans, span{value: v, grad: g, head: p})
	}
	return s
}

// ownGrads binds the gradients of those parameters that have no storage to
// consecutive windows of one new vector.
func ownGrads(ps []*Param) {
	n := 0
	for _, p := range ps {
		if p.Grad.Data() == nil {
			n += p.Value.Len()
		}
	}
	if n == 0 {
		return
	}
	g := make([]float64, n)
	for _, p := range ps {
		if p.Grad.Data() == nil {
			k := p.Value.Len()
			p.Grad.Repoint(g[:k])
			g = g[k:]
		}
	}
}

// Step applies one update using the currently accumulated gradients.
func (s *SGD) Step() {
	if s.Momentum != 0 && s.velocity == nil {
		n := 0
		for _, sp := range s.spans {
			n += len(sp.value)
		}
		s.velocity = param.Borrow(n)
		clear(s.velocity)
	}
	off := 0
	for _, sp := range s.spans {
		v, g := sp.value, sp.grad[:len(sp.value)]
		if &sp.head.Value.Data()[0] != &v[0] {
			panic("nn: SGD.Step after its parameters were laid out again: build the optimizer once the model is laid out (Values)")
		}
		if hg := sp.head.Grad.Data(); len(hg) == 0 || &hg[0] != &g[0] {
			panic("nn: SGD.Step on gradients its parameters no longer have: build the optimizer after the update's gradients are lent (Tape.LendGrads)")
		}
		if s.Momentum != 0 {
			tensor.SGDStep(v, g, s.velocity[off:][:len(v)], s.LR, s.Momentum, s.WeightDecay)
			off += len(v)
			continue
		}
		tensor.SGDStep(v, g, nil, s.LR, 0, s.WeightDecay)
	}
}

// Release hands the velocity back for another optimizer to borrow: call it
// when the local update is over (StepLoop.Run does). Momentum restarts from
// zero if the optimizer steps again. An optimizer that is never released
// leaves its velocity to the garbage collector.
func (s *SGD) Release() {
	if s.velocity != nil {
		param.GiveBack(s.velocity)
		s.velocity = nil
	}
}

// ZeroGrad clears all parameter gradients.
func (s *SGD) ZeroGrad() {
	for _, sp := range s.spans {
		clear(sp.grad)
	}
}

// ClipGradNorm rescales gradients so their global L2 norm does not exceed
// maxNorm. Contrastive losses occasionally produce spiky gradients early in
// training; clipping keeps the small-batch runs stable.
//
// Which gradients it scales, and by what, is decided by the serial norm:
// the square root of the squares summed left to right over the spans. It
// first sums the same squares in independent chains (tensor.SumSquares);
// when that sum proves the serial norm is at most maxNorm (see
// clipBoundDecides), nothing is scaled and it returns the chained sum's
// square root: an estimate of the serial norm, within a relative n·2⁻⁵³ of
// it for n gradients. Otherwise it runs the serial sum and returns the exact
// pre-clip norm, scaling every gradient by maxNorm/norm when that exceeds
// maxNorm.
//
// Finite gradients whose squares sum past the float64 range are scaled to
// maxNorm through a norm taken relative to their largest magnitude, as
// BLAS dnrm2 takes it, and the returned norm is that one. Gradients holding
// a NaN make the norm NaN, and every gradient becomes NaN; gradients
// holding ±Inf have an infinite norm, the finite ones become zero and the
// infinite ones NaN.
func (s *SGD) ClipGradNorm(maxNorm float64) float64 {
	var est float64
	n := 0
	for _, sp := range s.spans {
		est += tensor.SumSquares(sp.grad)
		n += len(sp.grad)
	}
	if clipBoundDecides(est, n, maxNorm) {
		return math.Sqrt(est)
	}
	var ss float64
	for _, sp := range s.spans {
		for _, g := range sp.grad {
			ss += g * g
		}
	}
	norm := math.Sqrt(ss)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	if math.IsInf(ss, 1) {
		if norm, ok := s.clipOverflowed(maxNorm); ok {
			return norm
		}
	}
	scale := maxNorm / norm
	for _, sp := range s.spans {
		tensor.ScaleSlice(sp.grad, scale)
	}
	return norm
}

// clipMargin is the relative slack clipBoundDecides adds to the summation
// bound: it covers the few roundings of the check itself (each at most
// 2⁻⁵³ relative), of gamma's evaluation, and a serial loop whose square and
// add a compiler fused into one rounding (a shift of at most 2⁻⁵³ relative
// per term), with room to spare.
const clipMargin = 1e-6

// clipBoundDecides reports whether est, the sum of n rounded squares in any
// order, proves that the serial left-to-right sum ss of the same squares has
// math.Sqrt(ss) ≤ maxNorm, so that ClipGradNorm scales nothing.
//
// The derivation. Let y_i = fl(g_i²) ≥ 0 and E = Σ y_i exactly. Any order of
// summing n terms passes each term through at most n−1 roundings that are
// not exact (adding an exact zero, as a chain's first add does, is exact),
// so with u = 2⁻⁵³ and γ = (n−1)u/(1−(n−1)u) every order lands within γ·E
// of E (Higham, Accuracy and Stability of Numerical Algorithms, §4.2; the
// terms are non-negative, so Σ|y_i| = E). The chained sum then has
// est ≥ (1−γ)E and the serial one ss ≤ (1+γ)E, so
//
//	ss ≤ est·(1+γ)/(1−γ) = est·(1 + 2γ/(1−γ)).
//
// Rounding is monotone and partial sums of non-negative terms only grow, so
// no serial partial sum overflows while that bound is finite. If
// est·(1 + 2γ/(1−γ) + clipMargin), as computed, is finite and at most
// maxNorm², also as computed, then ss ≤ maxNorm² exactly: the margin
// absorbs the roundings of the check. Then sqrt(ss) ≤ maxNorm, and since
// math.Sqrt is correctly rounded and maxNorm is a float64, the serial norm
// is ≤ maxNorm too. A NaN or infinite est, a negative or NaN maxNorm, or an
// n so large that (n−1)u is not small never decide: the serial sum runs.
func clipBoundDecides(est float64, n int, maxNorm float64) bool {
	const u = 0x1p-53
	nu := float64(max(n-1, 0)) * u
	if !(maxNorm >= 0) || nu > 0x1p-20 {
		return false
	}
	gamma := nu / (1 - nu)
	w := est * (1 + 2*gamma/(1-gamma) + clipMargin)
	return w <= maxNorm*maxNorm && !math.IsInf(w, 0)
}

// clipOverflowed clips finite gradients whose squares summed past the
// float64 range: with a the largest magnitude, the norm is a·sqrt(Σ (g/a)²),
// each gradient becomes (g/a)·(maxNorm/sqrt(Σ (g/a)²)), and it returns the
// norm. It reports false, scaling nothing, when a gradient is infinite.
func (s *SGD) clipOverflowed(maxNorm float64) (float64, bool) {
	var a float64
	for _, sp := range s.spans {
		for _, g := range sp.grad {
			a = max(a, math.Abs(g))
		}
	}
	if math.IsInf(a, 1) {
		return 0, false
	}
	var ssq float64
	for _, sp := range s.spans {
		for _, g := range sp.grad {
			r := g / a
			ssq += r * r
		}
	}
	rel := math.Sqrt(ssq)
	norm := a * rel
	if norm <= maxNorm {
		return norm, true
	}
	f := maxNorm / rel
	for _, sp := range s.spans {
		for j, g := range sp.grad {
			sp.grad[j] = (g / a) * f
		}
	}
	return norm, true
}
