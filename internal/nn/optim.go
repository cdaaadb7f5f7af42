package nn

import (
	"math"
	"sync"
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
	// step and handed back by Release.
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
// parameters' storage as it is now and allocates none of its own.
func NewSGD(m Module, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
	for _, p := range m.Params() {
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

// Step applies one update using the currently accumulated gradients.
func (s *SGD) Step() {
	if s.Momentum != 0 && s.velocity == nil {
		n := 0
		for _, sp := range s.spans {
			n += len(sp.value)
		}
		s.velocity = velocities.borrow(n)
	}
	off := 0
	for _, sp := range s.spans {
		v, g := sp.value, sp.grad[:len(sp.value)]
		if &sp.head.Value.Data()[0] != &v[0] {
			panic("nn: SGD.Step after its parameters were laid out again: build the optimizer once the model is laid out (Values)")
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
		velocities.giveBack(s.velocity)
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

// velocities lends optimizers their momentum vectors. A velocity lives for
// one local update, so what the process keeps is one vector per trainer
// running at once — not one per client model, which is what a velocity kept
// beside each model's arena would come to.
var velocities velocityPool

type velocityPool struct {
	mu   sync.Mutex
	free [][]float64
}

// borrow returns a zeroed vector of n elements: the smallest free one that
// holds n, or a new one.
func (p *velocityPool) borrow(n int) []float64 {
	p.mu.Lock()
	best := -1
	for i, v := range p.free {
		if cap(v) >= n && (best < 0 || cap(v) < cap(p.free[best])) {
			best = i
		}
	}
	var v []float64
	if best >= 0 {
		last := len(p.free) - 1
		v, p.free[best], p.free[last] = p.free[best], p.free[last], nil
		p.free = p.free[:last]
	}
	p.mu.Unlock()
	if v == nil {
		return make([]float64, n)
	}
	v = v[:n]
	clear(v)
	return v
}

func (p *velocityPool) giveBack(v []float64) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
