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
	// the backward pass. Every row is copied in, then overwritten whole.
	probs := logits.tape.allocUninit(m, n)
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
		softmaxInPlace(prow, lse)
	}
	loss /= float64(m)
	v := logits.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	node := newOp(v, crossEntropyBackward, logits)
	node.saved[0] = probs
	node.ints = logits.tape.Ints(m)
	copy(node.ints, targets)
	return node
}

// crossEntropyBackward reads the softmax rows from saved[0] and the targets
// from ints.
func crossEntropyBackward(node *Node, g *tensor.Tensor) {
	logits, probs, tgt := node.parents[0], node.saved[0], node.ints
	if !logits.requiresGrad {
		return
	}
	m, n := probs.Rows(), probs.Cols()
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
}

// SoftCrossEntropy returns -mean_i Σ_j q[i][j]·logsoftmax(logits)[i][j] for a
// constant target distribution q (m×n, rows summing to 1). SwAV's swapped
// prediction loss is this with q from the Sinkhorn assignment.
func SoftCrossEntropy(logits *Node, q *tensor.Tensor) *Node {
	m, n := logits.Value.Rows(), logits.Value.Cols()
	if q.Rows() != m || q.Cols() != n {
		panic(fmt.Sprintf("nn: SoftCrossEntropy q shape %v vs logits %v", q.Shape(), logits.Value.Shape()))
	}
	probs := logits.tape.allocUninit(m, n) // every row written by ExpShiftInto
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
	node := newOp(v, softCrossEntropyBackward, logits)
	node.saved[0], node.saved[1] = probs, q
	return node
}

// softCrossEntropyBackward reads the softmax rows from saved[0] and the
// target distribution from saved[1].
func softCrossEntropyBackward(node *Node, g *tensor.Tensor) {
	logits, probs, q := node.parents[0], node.saved[0], node.saved[1]
	if !logits.requiresGrad {
		return
	}
	m, n := probs.Rows(), probs.Cols()
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
	cosT := x.tape.alloc(m, 1)
	coss := cosT.Data()
	for i := 0; i < m; i++ {
		coss[i] = tensor.CosineSim(x.Value.Row(i), t.Row(i))
		loss += 1 - coss[i]
	}
	loss /= float64(m)
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	node := newOp(v, negCosineConstBackward, x)
	node.saved[0], node.saved[1] = t, cosT
	return node
}

// negCosineConstBackward reads the target from saved[0] and the rows'
// cosines from saved[1].
func negCosineConstBackward(node *Node, g *tensor.Tensor) {
	x, t, coss := node.parents[0], node.saved[0], node.saved[1].Data()
	if !x.requiresGrad {
		return
	}
	m, n := x.Value.Rows(), x.Value.Cols()
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
}

// NTXent computes the normalized-temperature cross-entropy (SimCLR) loss
// over a stacked batch of 2N projections, where row i and row i+N (mod 2N)
// are the two augmented views of the same sample. h is L2-normalized
// internally; temperature tau scales similarities. It is one graph node
// (cosineSoftmaxCE) with the bits of the chain L2NormalizeRows, MatMulTransB
// of the rows with themselves, Scale by 1/tau, and MaskedCrossEntropy with
// each row's own column masked.
func NTXent(h *Node, tau float64) *Node {
	return cosineSoftmaxCE(h, nil, nil, nil, tau)
}

// PairNTXent is NTXent for two separate view matrices (each N×d): row i of
// a pairs with row i of b. It is one node with the bits of NTXent over
// ConcatRows(a, b).
func PairNTXent(a, b *Node, tau float64) *Node {
	return cosineSoftmaxCE(a, b, nil, nil, tau)
}

// PrototypeCE computes the prototypical-network cross-entropy: each encoding
// z_i (m×d) is classified against the prototype matrix protos (K×d) by
// scaled dot product, with assign[i] the index of its prototype. Both sides
// are L2-normalized. Gradients flow into z and protos (when protos is a
// graph node built with GroupMean, this implements the paper's L_n
// regularizer). It is one node with the bits of the chain L2NormalizeRows on
// both sides, MatMulTransB, Scale by 1/tau and CrossEntropy — except that
// z's gradient receives its term before, not after, the backward passes of
// the ops protos was built with: when those also add to z's gradient (protos
// a GroupMean of z itself), the terms reach it in another order.
func PrototypeCE(z, protos *Node, assign []int, tau float64) *Node {
	return cosineSoftmaxCE(z, nil, protos, assign, tau)
}

// cosineSoftmaxCE is the one node behind NTXent, PairNTXent and
// PrototypeCE: the mean cross-entropy of the softmax rows of S = ẑ·b̂ᵀ/τ,
// where ẑ stacks the L2-normalized rows of a and then of a2 (when not nil),
// and b̂ holds the L2-normalized rows of b — or is ẑ itself when b is nil,
// which masks S's diagonal and targets row i at column (i + M/2) mod M; with
// b, row i's target is targets[i].
//
// It runs the unfused chain's arithmetic in the chain's order, so its loss
// and every gradient it adds are that chain's bits. Forward: every row is
// normalized straight into ẑ (or b̂), its norm kept for the backward pass;
// S is a·bᵀ's kernel once, then ×(1/τ) in one pass; the row log-sum-exps
// come four rows at a time (tensor.LogSumExpRows); the loss sums
// lse − S[i][target] in row order, and S becomes the softmax in place.
// Backward, with gv the loss gradient over M:
//
//	gS   = (+0 + gv·p, gv taken off at the target), then +0 + (1/τ)·that
//	gẑ   = gS·b̂                      (written)
//	     + gSᵀ·ẑ when b is nil        (through scratch, added)
//	gb̂   = gSᵀ·ẑ                      (written)
//	gx  += t, t = (gŷ − (gŷ·ŷ)·ŷ)/‖x‖ per row (gŷ itself below normEps)
//
// b's rows are done before a's, as the chain's topological order runs its
// two normalize nodes. Where the chain stacked two views (ConcatRows, a2
// not nil), each row adds +0 + t — the stacked gradient's +0 start — not t.
// The chain's intermediate nodes were reachable only through its loss, so
// removing them moves no other node's backward pass in the order Backward
// runs them: the terms reach a, a2 and b in the order they did.
func cosineSoftmaxCE(a, a2, b *Node, targets []int, tau float64) *Node {
	tp := tapeOf(a, a2, b)
	d := a.Value.Cols()
	ma, m := a.Value.Rows(), a.Value.Rows()
	if a2 != nil {
		if a2.Value.Cols() != d {
			panic(fmt.Sprintf("nn: ConcatRows col mismatch %d vs %d", d, a2.Value.Cols()))
		}
		m += a2.Value.Rows()
	}
	k, kb := m, 0 // S's columns; b's rows
	if b != nil {
		if b.Value.Cols() != d {
			panic(fmt.Sprintf("nn: MatMulTransB inner dims %d vs %d", d, b.Value.Cols()))
		}
		k, kb = b.Value.Rows(), b.Value.Rows()
		if len(targets) != m {
			panic(fmt.Sprintf("nn: CrossEntropy %d targets for %d rows", len(targets), m))
		}
		for _, t := range targets {
			if t < 0 || t >= k {
				panic(fmt.Sprintf("nn: CrossEntropy target %d out of range [0,%d)", t, k))
			}
		}
	} else if m%2 != 0 || m < 4 {
		panic(fmt.Sprintf("nn: NTXent needs an even batch of ≥4 rows, got %d", m))
	}
	z := tp.allocUninit(m, d)
	zb := z
	normsT := tp.allocUninit(m + kb)
	norms := normsT.Data()
	for i := 0; i < ma; i++ {
		norms[i] = tensor.L2NormalizeRowInto(z.Row(i), a.Value.Row(i), normEps)
	}
	for i := ma; i < m; i++ {
		norms[i] = tensor.L2NormalizeRowInto(z.Row(i), a2.Value.Row(i-ma), normEps)
	}
	if b != nil {
		zb = tp.allocUninit(k, d)
		for i := 0; i < k; i++ {
			norms[m+i] = tensor.L2NormalizeRowInto(zb.Row(i), b.Value.Row(i), normEps)
		}
	}
	tgt := tp.Ints(m)
	for i := range tgt {
		if b != nil {
			tgt[i] = targets[i]
		} else {
			tgt[i] = (i + m/2) % m
		}
	}
	inv := 1 / tau
	s := tp.allocUninit(m, k)
	tensor.MatMulTransBInto(s, z, zb)
	sd := s.Data()
	tensor.ScaleSlice(sd, inv)
	if b == nil {
		for i := 0; i < m; i++ {
			sd[i*k+i] = math.Inf(-1)
		}
	}
	lse := tp.allocUninit(m).Data()
	tensor.LogSumExpRows(lse, sd)
	var loss float64
	for i := 0; i < m; i++ {
		row := sd[i*k:][:k]
		loss += lse[i] - row[tgt[i]]
		softmaxInPlace(row, lse[i])
	}
	loss /= float64(m)
	v := tp.allocUninit(1, 1)
	v.Data()[0] = loss
	var node *Node
	switch {
	case a2 != nil:
		node = newOp(v, cosineSoftmaxCEBackward, a, a2)
		node.kind = stackedViews
	case b != nil:
		node = newOp(v, cosineSoftmaxCEBackward, a, b)
		node.kind = againstRows
	default:
		node = newOp(v, cosineSoftmaxCEBackward, a)
		node.kind = ownViews
	}
	node.saved = [4]*tensor.Tensor{s, z, zb, normsT}
	node.ints = tgt
	node.scalar = inv
	return node
}

// The forms of cosineSoftmaxCE, which its node's kind records: NTXent's,
// PairNTXent's (a second parent stacked under the first) and PrototypeCE's
// (a second parent whose rows are S's columns).
const (
	ownViews = iota
	stackedViews
	againstRows
)

// cosineSoftmaxCEBackward reads the softmax of S from saved[0], ẑ from
// saved[1], b̂ (ẑ itself but for againstRows) from saved[2], the rows' norms
// — a's, a2's, then b's — from saved[3], the targets from ints and 1/τ from
// scalar.
func cosineSoftmaxCEBackward(node *Node, g *tensor.Tensor) {
	tp, a := node.tape, node.parents[0]
	var a2, b *Node
	switch node.kind {
	case stackedViews:
		a2 = node.parents[1]
	case againstRows:
		b = node.parents[1]
	}
	s, z, zb, norms := node.saved[0], node.saved[1], node.saved[2], node.saved[3].Data()
	tgt, inv := node.ints, node.scalar
	m, k, d, ma := s.Rows(), s.Cols(), z.Cols(), a.Value.Rows()
	sd := s.Data()
	gv := g.At(0, 0) / float64(m)
	gs := tp.allocUninit(m, k)
	row := tp.allocUninit(k).Data()
	for i := 0; i < m; i++ {
		for j, p := range sd[i*k:][:k] {
			row[j] = 0 + gv*p
		}
		row[tgt[i]] -= gv
		tensor.AddScaledSlice(gs.Row(i), row, inv, true)
	}
	var gz *tensor.Tensor
	if b == nil || a.requiresGrad {
		gz = tp.allocUninit(m, d)
		tensor.MatMulInto(gz, gs, zb) // gS·b̂
	}
	if b == nil {
		tmp := tp.allocUninit(m, d)
		tensor.MatMulTransAInto(tmp, gs, z) // gSᵀ·ẑ
		mustAddScaled(gz, tmp, 1)
	} else if b.requiresGrad {
		gzb := tp.allocUninit(k, d)
		tensor.MatMulTransAInto(gzb, gs, z) // gSᵀ·ẑ
		normalizeBackward(b.Grad().Data(), gzb.Data(), zb.Data(), norms[m:], false)
	}
	stacked := a2 != nil
	if a.requiresGrad {
		normalizeBackward(a.Grad().Data(), gz.Data()[:ma*d], z.Data()[:ma*d], norms[:ma], stacked)
	}
	if stacked && a2.requiresGrad {
		normalizeBackward(a2.Grad().Data(), gz.Data()[ma*d:], z.Data()[ma*d:], norms[ma:m], stacked)
	}
}

// softmaxInPlace overwrites a row of logits with its softmax, given the
// row's log-sum-exp: exp(x − lse) on the vector path when lse is finite,
// and otherwise one element at a time, where a −Inf logit (a masked column)
// gives +0.
func softmaxInPlace(row []float64, lse float64) {
	if !math.IsInf(lse, 0) && !math.IsNaN(lse) {
		// exp(−Inf − lse) is the +0 a masked column gets.
		tensor.ExpShiftInto(row, row, lse)
		return
	}
	for j, x := range row {
		if math.IsInf(x, -1) {
			row[j] = 0
			continue
		}
		row[j] = math.Exp(x - lse)
	}
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
