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
// sweep with no branch on an element's sign, and runs a single backward
// closure (gPre and the bias gradient again in one such sweep):
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
	bd := bias.Value.Data()[:n]
	// Bias and activation in one sweep, each row while it is still hot.
	for i := 0; i < m; i++ {
		row := yd[i*n:][:n]
		switch act {
		case ActNone:
			for j, b := range bd {
				row[j] += b
			}
		case ActReLU:
			for j, b := range bd {
				row[j] = relu(row[j] + b)
			}
		case ActTanh:
			for j, b := range bd {
				row[j] = math.Tanh(row[j] + b)
			}
		default:
			panic(fmt.Sprintf("nn: unknown activation kind %d", act))
		}
	}
	return newOp(y, func(g *tensor.Tensor) {
		// ReLU's pre-activation sign is recoverable from the output
		// (y>0 ⇔ pre>0) and Tanh's derivative uses the output, so no
		// pre-activation tensor needs to be kept. One sweep writes every
		// element of gPre (hence uninit) and adds it to the bias gradient,
		// rows ascending: the order AddBias's backward sums them in. A bias
		// that takes no gradient still gets a (dead) one — no shipped layer
		// has such a bias, and a second sweep shape for it is not worth it.
		gPre, gd := g, g.Data()
		if act != ActNone {
			gPre = tp.allocUninit(m, n)
		}
		pd, gb := gPre.Data(), bias.Grad().Data()[:n]
		for i := 0; i < m; i++ {
			prow, grow, yrow := pd[i*n:][:n], gd[i*n:][:n], yd[i*n:][:n]
			switch act {
			case ActNone:
				for j, v := range grow {
					gb[j] += v
				}
			case ActReLU:
				for j, v := range grow {
					v = math.Float64frombits(math.Float64bits(v) & positiveMask(yrow[j]))
					prow[j] = v
					gb[j] += v
				}
			case ActTanh:
				for j, v := range grow {
					v *= 1 - yrow[j]*yrow[j]
					prow[j] = v
					gb[j] += v
				}
			}
		}
		if x.requiresGrad {
			addProduct(tp, x, tensor.MatMulTransBInto, gPre, w.Value) // gPre·Wᵀ
		}
		if w.requiresGrad {
			addProduct(tp, w, tensor.MatMulTransAInto, x.Value, gPre) // xᵀ·gPre
		}
	}, x, w, bias)
}

// ReLU on the bit pattern. The activation's sign is a coin flip per
// element, so `if v <= 0` and `if y > 0` mispredict half the time in the two
// hottest scalar sweeps of a training step; the integer forms below decide
// exactly what those comparisons decide, special values included
// (TestReLUSpecialValues holds them to the plain ifs).

const (
	signBit = 1 << 63
	infBits = 0x7FF << 52 // +Inf; anything above it, sign aside, is a NaN
)

// relu returns +0 where v <= 0 (negatives, −Inf, both zeros) and v itself
// elsewhere — NaN of either sign included, so a poisoned pre-activation
// stays visible.
func relu(v float64) float64 {
	u := math.Float64bits(v)
	// Top bit of drop: sign set, and infBits−|v| did not wrap (not a NaN).
	drop := u &^ (infBits - u&^signBit)
	return math.Float64frombits(u &^ uint64(int64(drop)>>63))
}

// positiveMask is all ones where y > 0 and zero elsewhere (±0, negatives,
// NaN): y > 0 ⇔ 1 ≤ bits(y) ≤ infBits, and the top bit of u, u−1 or
// infBits−u is set exactly when u is negative, zero or past +Inf.
func positiveMask(y float64) uint64 {
	u := math.Float64bits(y)
	return ^uint64(int64(u|(u-1)|(infBits-u)) >> 63)
}
