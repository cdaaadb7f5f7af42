package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/param"
	"calibre/internal/tensor"
)

// Param is a trainable tensor with an accumulated gradient. Value is a view
// (tensor.View) into the values vector a Layout carved: a module built by
// this repository's constructors has all its parameters' values in one
// vector, in Params() order (see Values). Grad is a header of the same shape
// whose storage is lent only while the parameter trains (Tape.LendGrads):
// between local updates it has none, and its header — so the cached leaf
// Node holds — stays the same across lends.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	node *Node // cached leaf, rebuilt if Value/Grad are rebound
}

// Layout is the owner of a module's parameter values while the module is
// being built: one vector, sized up front, from which the constructors carve
// their parameters one after the other — so the finished module's Params()
// are consecutive windows into it and loading, returning and stepping the
// whole model are flat loops (Values, Unflatten, SGD). What a Layout holds is
// what is still uncarved; the parameters keep the storage alive.
//
// A layout carves no gradients. A local update binds a model's gradients to
// one vector it borrows for its length (Tape.LendGrads), so the process keeps
// gradient storage per trainer running, not per model. The only other
// storage gradients get is what NewSGD binds to parameters that have none,
// for a caller that steps a module by hand outside a local update.
type Layout struct {
	values []float64
}

// NewLayout returns a layout with room for n scalars, all zero. Size it with
// LinearSize / MLPSize: a parameter that does not fit panics.
func NewLayout(n int) *Layout {
	return &Layout{values: make([]float64, n)}
}

// NewParam carves the layout's next parameter, zero-valued and with no
// gradient storage. A nil layout gives the parameter storage of its own.
func (l *Layout) NewParam(name string, shape ...int) *Param {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if l == nil {
		l = NewLayout(n)
	}
	if n > len(l.values) {
		panic(fmt.Sprintf("nn: parameter %q of shape %v does not fit the %d scalars left in its layout", name, shape, len(l.values)))
	}
	// The view keeps the capacity up to the end of the vector: that is what
	// lets joined recognize the next parameter as its continuation.
	p := &Param{Name: name, Value: tensor.View(l.values[:n], shape...), Grad: tensor.Unbound(shape...)}
	l.values = l.values[n:]
	return p
}

// NewParam allocates a parameter of its own with the given shape,
// zero-valued. A module assembled from such parameters is laid out on its
// first whole-model operation (see Values).
func NewParam(name string, shape ...int) *Param {
	return (*Layout)(nil).NewParam(name, shape...)
}

// Node returns a graph leaf bound to the parameter: gradients reaching the
// node accumulate directly into p.Grad. Calling Node multiple times within
// one graph (e.g. an encoder applied to two augmented views) is supported —
// all uses share the same gradient sink. The leaf is cached across calls
// (leaves are immutable, so graphs may share it); it is rebuilt if the
// Value or Grad tensors are ever rebound.
func (p *Param) Node() *Node {
	if p.node == nil || p.node.Value != p.Value || p.node.grad != p.Grad {
		p.node = &Node{Value: p.Value, grad: p.Grad, requiresGrad: true}
	}
	return p.node
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// InitHe fills p with He-normal initialization (std = sqrt(2/fanIn)),
// appropriate for ReLU networks.
func (p *Param) InitHe(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	for i, d := 0, p.Value.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64() * std
	}
}

// Module is anything that owns parameters.
type Module interface {
	// Params returns the module's parameters in a stable order. The slice
	// belongs to the module (the shipped modules cache it): read it, do not
	// append to it or reorder it.
	Params() []*Param
}

// ParamCount returns the total number of scalar parameters in m, whether or
// not their values have storage (BindValues).
func ParamCount(m Module) int {
	var n int
	for _, p := range m.Params() {
		n += p.Value.Size()
	}
	return n
}

// Values returns m's parameter values as one vector in Params() order — the
// storage the parameters' Value tensors are views of, not a copy: it is the
// wire format exchanged between federated clients and the server, and
// writing it is writing the model. m is a whole model or a run of
// consecutive layers of one. A model whose constructor carved it from one
// Layout is already such a vector and the call costs a walk over its
// parameter list; one assembled by hand from separately built parts is laid
// out on the first call — fresh storage, contents copied, every Param's
// Value rebound to a view of it — which invalidates what was derived from
// the old tensors (an SGD built earlier).
func Values(m Module) param.Vector {
	ps := m.Params()
	v, ok := joined(ps, false)
	if !ok {
		layOut(ps)
		if v, ok = joined(ps, false); !ok {
			panic("nn: a module lists one parameter twice")
		}
	}
	return v
}

// Grads returns the vector m's gradients are bound to, in Params() order: a
// local update's (Tape.LendGrads), or what NewSGD bound. It is nil while they
// have no storage, and it panics if they are not one vector.
func Grads(m Module) param.Vector {
	v, ok := joined(m.Params(), true)
	if !ok {
		panic("nn: the module's gradients are not bound to one vector")
	}
	return v
}

// joined returns the vector that the parameters' value (or gradient) tensors
// tile in order, if they do: each one beginning where the one before ends.
func joined(ps []*Param, grads bool) (param.Vector, bool) {
	var out []float64
	for _, p := range ps {
		d := p.Value.Data()
		if grads {
			d = p.Grad.Data()
		}
		switch {
		case len(d) == 0:
		case out == nil:
			out = d
		case follows(out, d):
			out = out[:len(out)+len(d)]
		default:
			return nil, false
		}
	}
	return out[:len(out):len(out)], true
}

// follows reports whether next begins where run ends, inside one allocation
// (next is not empty).
func follows(run, next []float64) bool {
	return cap(run)-len(run) >= len(next) && &run[:len(run)+1][len(run)] == &next[0]
}

// layOut moves the parameters' values, in order, into one fresh vector.
// Their gradient headers stay as they are.
func layOut(ps []*Param) {
	n := 0
	for _, p := range ps {
		n += p.Value.Len()
	}
	v := make([]float64, n)
	for _, p := range ps {
		n := p.Value.Len()
		copy(v, p.Value.Data())
		// Like a Layout's, the view keeps the capacity to the end of v.
		p.Value = tensor.View(v[:n], p.Value.Shape()...)
		v = v[n:]
	}
}

// BindValues points m's parameter values, in Params() order, at consecutive
// windows of v, which holds ParamCount(m) scalars, or leaves them with no
// storage when v is nil. The Value headers stay the same objects, so what
// holds them — a parameter's cached leaf, a layer — sees the new storage,
// and Values(m) is v. A trainer that needs a model only while it trains
// binds a spare one to a vector it borrowed (param.Borrow) for the update,
// as Tape.LendGrads binds its gradients, and unbinds it after. Build the
// update's optimizer after binding.
func BindValues(m Module, v []float64) {
	if n := ParamCount(m); v != nil && len(v) != n {
		panic(fmt.Sprintf("nn: BindValues of %d scalars to a module of %d parameters", len(v), n))
	}
	bind(m.Params(), v, false)
}

// bind points the parameters' values, or their gradients, at consecutive
// windows of v, in order — at no storage when v is nil. Each window keeps
// the capacity to the end of v, so they tile one vector (joined, NewSGD's
// runs).
func bind(ps []*Param, v []float64, grads bool) {
	off := 0
	for _, p := range ps {
		t := p.Value
		if grads {
			t = p.Grad
		}
		if v == nil {
			t.Repoint(nil)
			continue
		}
		n := t.Size()
		t.Repoint(v[off : off+n])
		off += n
	}
}

// Flatten returns a copy of m's parameter values (see Values), for a caller
// that keeps the vector past the model's next change.
func Flatten(m Module) param.Vector { return Values(m).Clone() }

// Unflatten writes vec into m's parameters. The vector length must equal
// ParamCount(m).
func Unflatten(m Module, vec []float64) error {
	dst := Values(m)
	if len(vec) != len(dst) {
		return fmt.Errorf("nn: Unflatten length %d, model has %d parameters", len(vec), len(dst))
	}
	copy(dst, vec)
	return nil
}

// CopyParams copies src's parameter values into dst. The two modules must
// have identical parameter layouts.
func CopyParams(dst, src Module) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: CopyParams param count %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if dp[i].Value.Len() != sp[i].Value.Len() {
			return fmt.Errorf("nn: CopyParams param %q size %d vs %d", dp[i].Name, dp[i].Value.Len(), sp[i].Value.Len())
		}
		copy(dp[i].Value.Data(), sp[i].Value.Data())
	}
	return nil
}

// EMAUpdate moves target toward online with decay m: target = m*target +
// (1-m)*online. Used by BYOL/MoCo momentum encoders and FedEMA.
func EMAUpdate(target, online Module, m float64) error {
	tp, op := target.Params(), online.Params()
	if len(tp) != len(op) {
		return fmt.Errorf("nn: EMAUpdate param count %d vs %d", len(tp), len(op))
	}
	for i := range tp {
		td, od := tp[i].Value.Data(), op[i].Value.Data()
		if len(td) != len(od) {
			return fmt.Errorf("nn: EMAUpdate param %q size %d vs %d", tp[i].Name, len(td), len(od))
		}
		for j := range td {
			td[j] = m*td[j] + (1-m)*od[j]
		}
	}
	return nil
}

// VecOps: small helpers on flat parameter vectors (the FL wire format).

// ErrVecLen marks vector operands whose lengths differ.
var ErrVecLen = errors.New("nn: vector lengths differ")

func checkVecLen(dst, a, b []float64) error {
	if len(a) != len(dst) || len(b) != len(dst) {
		return fmt.Errorf("%w: dst has %d elements, a %d, b %d", ErrVecLen, len(dst), len(a), len(b))
	}
	return nil
}

// VecSubInto sets dst = a-b; dst may be a or b.
func VecSubInto(dst, a, b []float64) error {
	if err := checkVecLen(dst, a, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return nil
}

// VecLerpInto sets dst = (1-t)*a + t*b; dst may be a or b.
func VecLerpInto(dst, a, b []float64, t float64) error {
	if err := checkVecLen(dst, a, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = (1-t)*a[i] + t*b[i]
	}
	return nil
}

// VecNorm2 returns the Euclidean norm of a.
func VecNorm2(a []float64) float64 {
	var ss float64
	for _, v := range a {
		ss += v * v
	}
	return math.Sqrt(ss)
}
