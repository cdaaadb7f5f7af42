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
// computes bias-add and activation in place on the MatMul output and runs a
// single backward closure:
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
	tp := tapeOf(x, w, bias)
	y := tp.allocUninit(m, n)
	tensor.MatMulInto(y, x.Value, w.Value)
	yd := y.Data()
	bd := bias.Value.Data()
	for i := 0; i < m; i++ {
		row := yd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += bd[j]
		}
	}
	switch act {
	case ActNone:
	case ActReLU:
		for i := range yd {
			if yd[i] <= 0 {
				yd[i] = 0
			}
		}
	case ActTanh:
		for i := range yd {
			yd[i] = math.Tanh(yd[i])
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation kind %d", act))
	}
	return newOp(y, func(g *tensor.Tensor) {
		gPre := g
		if act != ActNone {
			// ReLU's pre-activation sign is recoverable from the output
			// (y>0 ⇔ pre>0) and Tanh's derivative uses the output, so no
			// pre-activation tensor needs to be kept. Zeroed, not uninit:
			// the ReLU branch writes gPre only where y > 0.
			gPre = tp.alloc(m, n)
			pd, gd := gPre.Data(), g.Data()
			switch act {
			case ActReLU:
				for i := range pd {
					if yd[i] > 0 {
						pd[i] = gd[i]
					}
				}
			case ActTanh:
				for i := range pd {
					pd[i] = gd[i] * (1 - yd[i]*yd[i])
				}
			}
		}
		if bias.requiresGrad {
			gb := bias.Grad().Data()
			pd := gPre.Data()
			for i := 0; i < m; i++ {
				row := pd[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					gb[j] += row[j]
				}
			}
		}
		if x.requiresGrad {
			tmp := tp.allocLikeUninit(x.Value)
			tensor.MatMulTransBInto(tmp, gPre, w.Value) // gPre·Wᵀ
			mustAddScaled(x.Grad(), tmp, 1)
		}
		if w.requiresGrad {
			tmp := tp.allocLikeUninit(w.Value)
			tensor.MatMulTransAInto(tmp, x.Value, gPre) // xᵀ·gPre
			mustAddScaled(w.Grad(), tmp, 1)
		}
	}, x, w, bias)
}
