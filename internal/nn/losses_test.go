package nn

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

// scalarMaskedCE is MaskedCrossEntropy's forward and backward as one-element
// loops with math.Exp, for upstream gradient 1: the loss and the gradient
// with respect to the logits.
func scalarMaskedCE(logits *tensor.Tensor, targets []int, exclude [][]int) (float64, []float64) {
	m, n := logits.Rows(), logits.Cols()
	probs := make([]float64, m*n)
	var loss float64
	for i := 0; i < m; i++ {
		prow := probs[i*n : (i+1)*n]
		copy(prow, logits.Row(i))
		if i < len(exclude) {
			for _, j := range exclude[i] {
				prow[j] = math.Inf(-1)
			}
		}
		lse := tensor.LogSumExp(prow)
		loss += lse - prow[targets[i]]
		for j := 0; j < n; j++ {
			if math.IsInf(prow[j], -1) {
				prow[j] = 0
				continue
			}
			prow[j] = math.Exp(prow[j] - lse)
		}
	}
	loss /= float64(m)
	gv := 1 / float64(m)
	grad := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			grad[i*n+j] += gv * probs[i*n+j]
		}
		grad[i*n+targets[i]] -= gv
	}
	return loss, grad
}

// scalarSoftCE is SoftCrossEntropy's forward and backward as one-element
// loops with math.Exp, for upstream gradient 1.
func scalarSoftCE(logits, q *tensor.Tensor) (float64, []float64) {
	m, n := logits.Rows(), logits.Cols()
	probs := make([]float64, m*n)
	var loss float64
	for i := 0; i < m; i++ {
		row, qrow := logits.Row(i), q.Row(i)
		lse := tensor.LogSumExp(row)
		for j := 0; j < n; j++ {
			loss -= qrow[j] * (row[j] - lse)
			probs[i*n+j] = math.Exp(row[j] - lse)
		}
	}
	loss /= float64(m)
	gv := 1 / float64(m)
	grad := make([]float64, m*n)
	for i := 0; i < m; i++ {
		qrow := q.Row(i)
		var s float64
		for j := 0; j < n; j++ {
			s += qrow[j]
		}
		for j := 0; j < n; j++ {
			grad[i*n+j] += gv * (s*probs[i*n+j] - qrow[j])
		}
	}
	return loss, grad
}

// sameFloat is bitwise equality, except that any NaN equals any NaN: which
// payload a sum keeps depends on the operand order the compiler picks.
func sameFloat(want, got float64) bool {
	return math.Float64bits(want) == math.Float64bits(got) || math.IsNaN(want) && math.IsNaN(got)
}

// TestSoftmaxLossesMatchScalarLoops holds MaskedCrossEntropy and
// SoftCrossEntropy, loss and gradient, to their rows' one-element math.Exp
// loops, bit for bit, on rows of a short and a vector-wide width: ordinary
// rows, masked columns, an all-masked row, and rows holding −Inf, +Inf and
// NaN logits (whose non-finite log-sum-exp keeps MaskedCrossEntropy on the
// scalar loop).
func TestSoftmaxLossesMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{7, 66} {
		for _, specials := range []bool{false, true} {
			testSoftmaxLossRows(t, rng, n, specials)
		}
	}
}

// testSoftmaxLossRows is TestSoftmaxLossesMatchScalarLoops at width n: with
// specials, the rows with non-finite logits and the all-masked row join
// (which make the mean loss NaN, so the finite case holds the loss itself).
func testSoftmaxLossRows(t *testing.T, rng *rand.Rand, n int, specials bool) {
	const m = 8
	logits := randParam(rng, "logits", m, n)
	data := logits.Value.Data()
	for i := range data {
		data[i] *= 10
	}
	targets := make([]int, m)
	exclude := make([][]int, m-1) // the last row has no entry
	for i := range targets {
		targets[i] = rng.Intn(n)
	}
	for i := range exclude {
		exclude[i] = []int{(targets[i] + 1) % n, (targets[i] + 3) % n}
	}
	if specials {
		logits.Value.Set(1, (targets[1]+2)%n, math.Inf(-1))
		logits.Value.Set(2, 0, math.Inf(1))
		logits.Value.Set(3, n-1, math.NaN())
		logits.Value.Set(4, 1, math.Inf(-1))
		logits.Value.Set(4, 3, math.Inf(1))
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		exclude[5] = all
	}
	q := tensor.New(m, n)
	for i := range q.Data() {
		q.Data()[i] = rng.Float64() / float64(n)
	}

	for _, c := range []struct {
		name string
		loss func() *Node
		want func() (float64, []float64)
	}{
		{"MaskedCrossEntropy", func() *Node { return MaskedCrossEntropy(logits.Node(), targets, exclude) },
			func() (float64, []float64) { return scalarMaskedCE(logits.Value, targets, exclude) }},
		{"SoftCrossEntropy", func() *Node { return SoftCrossEntropy(logits.Node(), q) },
			func() (float64, []float64) { return scalarSoftCE(logits.Value, q) }},
	} {
		lendGrads(t, logits)
		l := c.loss()
		if err := Backward(l); err != nil {
			t.Fatal(err)
		}
		wantLoss, wantGrad := c.want()
		if !specials && (math.IsNaN(wantLoss) || math.IsInf(wantLoss, 0)) {
			t.Fatalf("%s n=%d: the rows without special values have loss %v", c.name, n, wantLoss)
		}
		if got := l.Value.At(0, 0); !sameFloat(wantLoss, got) {
			t.Fatalf("%s n=%d specials=%v: loss %v (%#x), scalar loops %v (%#x)", c.name, n, specials, got, math.Float64bits(got), wantLoss, math.Float64bits(wantLoss))
		}
		for i, g := range logits.Grad.Data() {
			if !sameFloat(wantGrad[i], g) {
				t.Fatalf("%s n=%d specials=%v: gradient %d (row %d) = %v (%#x), scalar loops %v (%#x)",
					c.name, n, specials, i, i/n, g, math.Float64bits(g), wantGrad[i], math.Float64bits(wantGrad[i]))
			}
		}
	}
}
