package nn

import (
	"fmt"
	"math"

	"calibre/internal/tensor"
)

// fused gates the fused Linear forward/backward kernels. It is true in
// every shipped configuration and nothing outside this package can change
// it; the unfused three-node path is kept as the bit-identity reference the
// tests in fused_test.go compare against, and they flip the switch
// in-package for its duration (as tensor's tests do with useAVX2).
var fused = true

// LinearAct is the fused affine+activation kernel: one graph node computing
// act(x·W + b) where x is (m×k), w is (k×n) and bias holds n elements.
// ActNone skips the activation. The unfused equivalent records three nodes
// (MatMul, AddBias, ReLU/Tanh) with two intermediate tensors; the fused node
// computes bias-add and activation in place on the MatMul output, in one
// sweep with no branch on an element's sign (tensor.AddRowVecReLU), and runs
// a single backward pass, linearActBackward (tensor.ReLUGradInto, then
// tensor.AddRows for the bias gradient):
//
//	gPre    = g ∘ act'(y)     (activation gradient, from the output y)
//	b.grad += column-sums of gPre
//	x.grad += gPre·Wᵀ
//	W.grad += xᵀ·gPre
//
// Every operation reproduces the unfused ops' arithmetic in the same
// accumulation order, so results are bit-identical to the three-node chain —
// 0-ULP, at any kernel worker count (the matrix products are the same
// deterministic tensor kernels).
func LinearAct(x, w, bias *Node, act ActKind) *Node {
	m, k := x.Value.Rows(), x.Value.Cols()
	if w.Value.Dims() != 2 || w.Value.Rows() != k {
		panic(fmt.Sprintf("nn: LinearAct weight shape %v for input %v", w.Value.Shape(), x.Value.Shape()))
	}
	n := w.Value.Cols()
	if bias.Value.Len() != n {
		panic(fmt.Sprintf("nn: LinearAct bias has %d elements, want %d", bias.Value.Len(), n))
	}
	y := tapeOf(x, w, bias).allocUninit(m, n)
	tensor.MatMulInto(y, x.Value, w.Value)
	bd := bias.Value.Data()[:n]
	// Bias and activation in one sweep over y: tensor's vector row
	// primitives for the identity and ReLU (each element one rounded add,
	// then ReLU's compare-and-mask), the scalar math.Tanh for Tanh.
	switch act {
	case ActNone:
		tensor.AddRowVec(y, bd)
	case ActReLU:
		tensor.AddRowVecReLU(y, bd)
	case ActTanh:
		yd := y.Data()
		for i := 0; i < m; i++ {
			row := yd[i*n:][:n]
			for j, b := range bd {
				row[j] = math.Tanh(row[j] + b)
			}
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation kind %d", act))
	}
	node := newOp(y, linearActBackward, x, w, bias)
	node.kind = int(act)
	return node
}

// linearActBackward reads the activation kind from kind.
func linearActBackward(node *Node, g *tensor.Tensor) {
	// ReLU's pre-activation sign is recoverable from the output (y>0 ⇔
	// pre>0) and Tanh's derivative uses the output, so no pre-activation
	// tensor needs to be kept. gPre is written whole (hence uninit) and then
	// added to the bias gradient, rows ascending: the order AddBias's
	// backward sums them in. A bias that takes no gradient still gets a
	// (dead) one — no shipped layer has such a bias, and a second sweep
	// shape for it is not worth it.
	x, w, bias := node.parents[0], node.parents[1], node.parents[2]
	tp, y := node.tape, node.Value
	m, n := y.Rows(), y.Cols()
	gPre := g
	switch ActKind(node.kind) {
	case ActReLU:
		gPre = tp.allocUninit(m, n)
		tensor.ReLUGradInto(gPre, g, y)
	case ActTanh:
		gPre = tp.allocUninit(m, n)
		pd, gd, yd := gPre.Data(), g.Data(), y.Data()
		for i, v := range gd[:m*n] {
			pd[i] = v * (1 - yd[i]*yd[i])
		}
	}
	tensor.AddRows(bias.Grad().Data()[:n], gPre)
	if x.requiresGrad {
		addProduct(tp, x, tensor.MatMulTransBInto, gPre, w.Value) // gPre·Wᵀ
	}
	if w.requiresGrad {
		addProduct(tp, w, tensor.MatMulTransAInto, x.Value, gPre) // xᵀ·gPre
	}
}
