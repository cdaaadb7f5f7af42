package nn

import (
	"fmt"
	"math/rand"

	"calibre/internal/tensor"
)

// Layer is a module that transforms a batch node.
type Layer interface {
	Module
	Forward(x *Node) *Node
}

// Linear is a fully connected layer computing y = x·W + b, with W shaped
// (in×out).
type Linear struct {
	W *Param
	B *Param

	params []*Param // [W, B], cached by Params
}

var _ Layer = (*Linear)(nil)

// LinearSize is the number of scalars a Linear layer of the given widths
// takes from a Layout.
func LinearSize(in, out int) int { return in*out + out }

// NewLinear builds a Linear layer with He-normal weights and zero bias, in a
// layout of its own.
func NewLinear(rng *rand.Rand, in, out int, name string) *Linear {
	return NewLayout(LinearSize(in, out)).Linear(rng, in, out, name)
}

// Linear is NewLinear with the layer's parameters carved from l: W, then B.
func (l *Layout) Linear(rng *rand.Rand, in, out int, name string) *Linear {
	lin := &Linear{
		W: l.NewParam(name+".W", in, out),
		B: l.NewParam(name+".B", 1, out),
	}
	lin.W.InitHe(rng, in)
	return lin
}

// Forward applies the affine map to a (batch×in) node. With the fused
// kernels enabled (the default) this records a single LinearAct node;
// otherwise the reference MatMul+AddBias pair. Both paths are bit-identical.
func (l *Linear) Forward(x *Node) *Node {
	if fused {
		return LinearAct(x, l.W.Node(), l.B.Node(), ActNone)
	}
	return AddBias(MatMul(x, l.W.Node()), l.B.Node())
}

// Params returns [W, B].
func (l *Linear) Params() []*Param {
	if l.params == nil {
		l.params = []*Param{l.W, l.B}
	}
	return l.params
}

// Activation is a parameter-free layer applying a pointwise nonlinearity.
type Activation struct {
	Kind ActKind
}

// ActKind selects an activation function.
type ActKind int

// Supported activation kinds. ActNone (the zero value) is accepted only by
// the fused LinearAct kernel, where it means "affine map, no nonlinearity".
const (
	ActNone ActKind = iota
	ActReLU
	ActTanh
)

var _ Layer = (*Activation)(nil)

// Forward applies the activation.
func (a *Activation) Forward(x *Node) *Node {
	switch a.Kind {
	case ActReLU:
		return ReLU(x)
	case ActTanh:
		return Tanh(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation kind %d", a.Kind))
	}
}

// Params returns nil; activations are parameter-free.
func (a *Activation) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer

	params []*Param // cached by Params; Layers is fixed from then on
}

var _ Layer = (*Sequential)(nil)

// Forward applies each layer in order. With the fused kernels enabled, a
// Linear layer immediately followed by an Activation is peephole-fused into
// one LinearAct node — bit-identical to the layer-by-layer pass, but with
// one node and one output buffer instead of three.
func (s *Sequential) Forward(x *Node) *Node {
	for i := 0; i < len(s.Layers); i++ {
		if lin, ok := s.Layers[i].(*Linear); ok && fused {
			act := ActNone
			if i+1 < len(s.Layers) {
				if a, ok := s.Layers[i+1].(*Activation); ok {
					act = a.Kind
					i++
				}
			}
			x = LinearAct(x, lin.W.Node(), lin.B.Node(), act)
			continue
		}
		x = s.Layers[i].Forward(x)
	}
	return x
}

// Params concatenates the parameters of all layers in order.
func (s *Sequential) Params() []*Param {
	if s.params == nil {
		for _, l := range s.Layers {
			s.params = append(s.params, l.Params()...)
		}
	}
	return s.params
}

// MLPSize is the number of scalars an MLP of the given dims takes from a
// Layout.
func MLPSize(dims ...int) int {
	n := 0
	for i := 0; i+1 < len(dims); i++ {
		n += LinearSize(dims[i], dims[i+1])
	}
	return n
}

// MLP builds a multi-layer perceptron with ReLU between hidden layers and a
// linear final layer, in a layout of its own. dims = [in, h1, ..., out]; it
// must contain at least two entries.
func MLP(rng *rand.Rand, name string, dims ...int) *Sequential {
	return NewLayout(MLPSize(dims...)).MLP(rng, name, dims...)
}

// MLP is the package's MLP with the layers' parameters carved from l, first
// layer first.
func (l *Layout) MLP(rng *rand.Rand, name string, dims ...int) *Sequential {
	if len(dims) < 2 {
		panic("nn: MLP needs at least [in, out] dims")
	}
	s := &Sequential{Layers: make([]Layer, 0, 2*len(dims)-3)}
	for i := 0; i < len(dims)-1; i++ {
		s.Layers = append(s.Layers, l.Linear(rng, dims[i], dims[i+1], fmt.Sprintf("%s.l%d", name, i)))
		if i < len(dims)-2 {
			s.Layers = append(s.Layers, &Activation{Kind: ActReLU})
		}
	}
	return s
}

// ForwardTensor is a convenience that wraps a constant input tensor and runs
// a forward pass with no gradient tracking on the input (parameters still
// receive gradients if Backward is called on a downstream loss).
func ForwardTensor(l Layer, x *tensor.Tensor) *Node {
	return l.Forward(Input(x))
}
