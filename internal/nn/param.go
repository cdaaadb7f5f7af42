package nn

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/tensor"
)

// Param is a trainable tensor with an accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	node *Node // cached leaf, rebuilt if Value/Grad are rebound
}

// NewParam allocates a parameter with the given shape, zero-valued.
func NewParam(name string, shape ...int) *Param {
	v := tensor.New(shape...)
	return &Param{
		Name:  name,
		Value: v,
		Grad:  tensor.NewLike(v),
	}
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
	// Params returns the module's parameters in a stable order.
	Params() []*Param
}

// ParamCount returns the total number of scalar parameters in m.
func ParamCount(m Module) int {
	var n int
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// Flatten copies all parameter values of m into a single vector, in
// Params() order. This is the wire format exchanged between federated
// clients and the server.
func Flatten(m Module) []float64 {
	out := make([]float64, 0, ParamCount(m))
	for _, p := range m.Params() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// Unflatten writes vec back into m's parameters. The vector length must
// equal ParamCount(m).
func Unflatten(m Module, vec []float64) error {
	want := ParamCount(m)
	if len(vec) != want {
		return fmt.Errorf("nn: Unflatten length %d, model has %d parameters", len(vec), want)
	}
	off := 0
	for _, p := range m.Params() {
		d := p.Value.Data()
		copy(d, vec[off:off+len(d)])
		off += len(d)
	}
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

// VecSub returns a-b.
func VecSub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// VecLerp returns (1-t)*a + t*b.
func VecLerp(a, b []float64, t float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = (1-t)*a[i] + t*b[i]
	}
	return out
}

// VecNorm2 returns the Euclidean norm of a.
func VecNorm2(a []float64) float64 {
	var ss float64
	for _, v := range a {
		ss += v * v
	}
	return math.Sqrt(ss)
}
