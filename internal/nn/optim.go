package nn

import (
	"math"

	"calibre/internal/param"
)

// SGD is stochastic gradient descent with optional classical momentum and
// decoupled weight decay. The zero value is unusable; construct with NewSGD.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	// spans is the parameters' storage as runs of consecutive parameters —
	// one run for a model carved from one Layout, or for the head or the
	// encoder of one — so every pass below is a flat loop per run.
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
			vel := s.velocity[off:][:len(v)]
			for j := range v {
				grad := g[j] + s.WeightDecay*v[j]
				vel[j] = s.Momentum*vel[j] + grad
				v[j] -= s.LR * vel[j]
			}
			off += len(v)
			continue
		}
		for j := range v {
			grad := g[j] + s.WeightDecay*v[j]
			v[j] -= s.LR * grad
		}
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
// maxNorm. It returns the pre-clip norm. Contrastive losses occasionally
// produce spiky gradients early in training; clipping keeps the small-batch
// runs stable.
func (s *SGD) ClipGradNorm(maxNorm float64) float64 {
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
	scale := maxNorm / norm
	for _, sp := range s.spans {
		for j := range sp.grad {
			sp.grad[j] *= scale
		}
	}
	return norm
}
