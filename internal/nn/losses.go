package nn

import (
	"fmt"
	"math"

	"calibre/internal/tensor"
)

// CrossEntropy returns the mean softmax cross-entropy of logits (m×n)
// against integer targets (length m). This is the supervised classification
// loss used throughout the paper (the l_c term and the personalization
// objective).
func CrossEntropy(logits *Node, targets []int) *Node {
	return MaskedCrossEntropy(logits, targets, nil)
}

// MaskedCrossEntropy is CrossEntropy where, per row, the column indices in
// exclude[i] are removed from the softmax normalization (treated as -inf
// logits). exclude may be nil, or shorter than the batch (missing rows mean
// no exclusions). Contrastive losses use this to mask self-similarity.
func MaskedCrossEntropy(logits *Node, targets []int, exclude [][]int) *Node {
	m, n := logits.Value.Rows(), logits.Value.Cols()
	if len(targets) != m {
		panic(fmt.Sprintf("nn: CrossEntropy %d targets for %d rows", len(targets), m))
	}
	// Forward: per-row masked log-softmax; store softmax probabilities for
	// the backward pass.
	probs := logits.tape.alloc(m, n)
	var loss float64
	excluded := func(i int) []int {
		if exclude == nil || i >= len(exclude) {
			return nil
		}
		return exclude[i]
	}
	for i := 0; i < m; i++ {
		// The probs row doubles as the masked-logits scratch: mask in place,
		// take the log-sum-exp, then overwrite with the softmax.
		prow := probs.Row(i)
		copy(prow, logits.Value.Row(i))
		for _, j := range excluded(i) {
			prow[j] = math.Inf(-1)
		}
		lse := tensor.LogSumExp(prow)
		t := targets[i]
		if t < 0 || t >= n {
			panic(fmt.Sprintf("nn: CrossEntropy target %d out of range [0,%d)", t, n))
		}
		loss += lse - prow[t]
		if !math.IsInf(lse, 0) && !math.IsNaN(lse) {
			// exp(−Inf − lse) is the +0 a masked column gets.
			tensor.ExpShiftInto(prow, prow, lse)
			continue
		}
		for j := 0; j < n; j++ {
			if math.IsInf(prow[j], -1) {
				prow[j] = 0
				continue
			}
			prow[j] = math.Exp(prow[j] - lse)
		}
	}
	loss /= float64(m)
	v := logits.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	tgt := logits.tape.Ints(m)
	copy(tgt, targets)
	return newOp(v, func(g *tensor.Tensor) {
		if !logits.requiresGrad {
			return
		}
		gv := g.At(0, 0) / float64(m)
		gl := logits.Grad()
		for i := 0; i < m; i++ {
			prow := probs.Row(i)
			grow := gl.Row(i)
			for j := 0; j < n; j++ {
				grow[j] += gv * prow[j]
			}
			grow[tgt[i]] -= gv
		}
	}, logits)
}

// SoftCrossEntropy returns -mean_i Σ_j q[i][j]·logsoftmax(logits)[i][j] for a
// constant target distribution q (m×n, rows summing to 1). SwAV's swapped
// prediction loss is this with q from the Sinkhorn assignment.
func SoftCrossEntropy(logits *Node, q *tensor.Tensor) *Node {
	m, n := logits.Value.Rows(), logits.Value.Cols()
	if q.Rows() != m || q.Cols() != n {
		panic(fmt.Sprintf("nn: SoftCrossEntropy q shape %v vs logits %v", q.Shape(), logits.Value.Shape()))
	}
	probs := logits.tape.alloc(m, n)
	var loss float64
	for i := 0; i < m; i++ {
		row := logits.Value.Row(i)
		lse := tensor.LogSumExp(row)
		qrow := q.Row(i)
		prow := probs.Row(i)
		for j := 0; j < n; j++ {
			loss -= qrow[j] * (row[j] - lse)
		}
		tensor.ExpShiftInto(prow, row, lse)
	}
	loss /= float64(m)
	v := logits.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	return newOp(v, func(g *tensor.Tensor) {
		if !logits.requiresGrad {
			return
		}
		gv := g.At(0, 0) / float64(m)
		gl := logits.Grad()
		for i := 0; i < m; i++ {
			prow := probs.Row(i)
			qrow := q.Row(i)
			grow := gl.Row(i)
			// Rows of q may sum to s ≤ 1; gradient is (s·p - q).
			var s float64
			for j := 0; j < n; j++ {
				s += qrow[j]
			}
			for j := 0; j < n; j++ {
				grow[j] += gv * (s*prow[j] - qrow[j])
			}
		}
	}, logits)
}

// NegCosineConst returns mean_i (1 - cos(x_i, t_i)) where t is a constant
// target (stop-gradient side). BYOL and SimSiam minimize this between the
// online predictor output and the (detached) target projection.
func NegCosineConst(x *Node, t *tensor.Tensor) *Node {
	m, n := x.Value.Rows(), x.Value.Cols()
	if t.Rows() != m || t.Cols() != n {
		panic(fmt.Sprintf("nn: NegCosineConst target shape %v vs %v", t.Shape(), x.Value.Shape()))
	}
	var loss float64
	coss := x.tape.alloc(m, 1).Data()
	for i := 0; i < m; i++ {
		coss[i] = tensor.CosineSim(x.Value.Row(i), t.Row(i))
		loss += 1 - coss[i]
	}
	loss /= float64(m)
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gv := g.At(0, 0) / float64(m)
		gx := x.Grad()
		for i := 0; i < m; i++ {
			xrow := x.Value.Row(i)
			trow := t.Row(i)
			nx := tensor.Norm2(xrow)
			nt := tensor.Norm2(trow)
			if nx < normEps || nt < normEps {
				continue
			}
			grow := gx.Row(i)
			c := coss[i]
			for j := 0; j < n; j++ {
				// d(1-cos)/dx_j = -(t̂_j - cos·x̂_j)/|x|
				grow[j] += gv * -((trow[j] / nt) - c*(xrow[j]/nx)) / nx
			}
		}
	}, x)
}

// NTXent computes the normalized-temperature cross-entropy (SimCLR) loss
// over a stacked batch of 2N projections, where row i and row i+N (mod 2N)
// are the two augmented views of the same sample. h is L2-normalized
// internally; temperature tau scales similarities.
func NTXent(h *Node, tau float64) *Node {
	total := h.Value.Rows()
	if total%2 != 0 || total < 4 {
		panic(fmt.Sprintf("nn: NTXent needs an even batch of ≥4 rows, got %d", total))
	}
	n := total / 2
	z := L2NormalizeRows(h)
	sim := Scale(MatMulTransB(z, z), 1/tau)
	targets := h.tape.Ints(total)
	exclude := h.tape.IntRows(total)
	selfIdx := h.tape.Ints(total) // shared backing for the per-row masks
	for i := 0; i < total; i++ {
		targets[i] = (i + n) % total
		selfIdx[i] = i
		exclude[i] = selfIdx[i : i+1] // mask self-similarity
	}
	return MaskedCrossEntropy(sim, targets, exclude)
}

// PairNTXent is NTXent for two separate view matrices (each N×d): it stacks
// them so row i of a pairs with row i of b.
func PairNTXent(a, b *Node, tau float64) *Node {
	return NTXent(ConcatRows(a, b), tau)
}

// PrototypeCE computes the prototypical-network cross-entropy: each encoding
// z_i (m×d) is classified against the prototype matrix protos (K×d) by
// scaled dot product, with assign[i] the index of its prototype. Both sides
// are L2-normalized. Gradients flow into z and protos (when protos is a
// graph node built with GroupMean, this implements the paper's L_n
// regularizer).
func PrototypeCE(z, protos *Node, assign []int, tau float64) *Node {
	zn := L2NormalizeRows(z)
	pn := L2NormalizeRows(protos)
	logits := Scale(MatMulTransB(zn, pn), 1/tau)
	return CrossEntropy(logits, assign)
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// target label.
func Accuracy(logits *tensor.Tensor, targets []int) float64 {
	m := logits.Rows()
	if m == 0 {
		return 0
	}
	var correct int
	for i := 0; i < m; i++ {
		if tensor.ArgMax(logits.Row(i)) == targets[i] {
			correct++
		}
	}
	return float64(correct) / float64(m)
}
