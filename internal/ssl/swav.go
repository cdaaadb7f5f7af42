package ssl

import (
	"math"
	"math/rand"

	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// SwAV implements "Unsupervised Learning of Visual Features by Contrasting
// Cluster Assignments" (Caron et al., NeurIPS 2020): learnable prototypes
// score each view; soft cluster assignments computed by Sinkhorn-Knopp on
// one view supervise the softmax prediction of the other (swapped
// prediction). The prototype matrix is a learnable parameter federated with
// the backbone.
type SwAV struct {
	Tau          float64 // softmax temperature for predictions
	Eps          float64 // Sinkhorn entropy regularization
	SinkhornIter int

	prototypes *nn.Param // K × projDim
}

var _ Method = (*SwAV)(nil)

// NewSwAV returns a factory producing SwAV with k prototypes.
func NewSwAV(k int, tau float64) Factory {
	return func(rng *rand.Rand, b *Backbone) (Method, error) {
		p := nn.NewParam("swav.protos", k, b.Arch.ProjDim)
		p.InitHe(rng, b.Arch.ProjDim)
		return &SwAV{Tau: tau, Eps: 0.05, SinkhornIter: 3, prototypes: p}, nil
	}
}

// Name implements Method.
func (s *SwAV) Name() string { return "swav" }

// Loss computes the swapped-prediction objective.
func (s *SwAV) Loss(ctx *StepContext) *nn.Node {
	zn1 := nn.L2NormalizeRows(ctx.H1)
	zn2 := nn.L2NormalizeRows(ctx.H2)
	cn := nn.L2NormalizeRows(s.prototypes.Node())
	scores1 := nn.MatMulTransB(zn1, cn)
	scores2 := nn.MatMulTransB(zn2, cn)
	// Assignments are computed without gradient.
	q1 := Sinkhorn(scores1.Value, s.Eps, s.SinkhornIter)
	q2 := Sinkhorn(scores2.Value, s.Eps, s.SinkhornIter)
	// Swapped prediction: q1 supervises view 2 and vice versa.
	l1 := nn.SoftCrossEntropy(nn.Scale(scores2, 1/s.Tau), q1)
	l2 := nn.SoftCrossEntropy(nn.Scale(scores1, 1/s.Tau), q2)
	return nn.Scale(nn.Add(l1, l2), 0.5)
}

// AfterStep renormalizes prototype rows to the unit sphere, as SwAV does.
func (s *SwAV) AfterStep(*Backbone) {
	normed := tensor.L2NormalizeRows(s.prototypes.Value, 1e-12)
	copy(s.prototypes.Value.Data(), normed.Data())
}

// ExtraParams exposes the prototype matrix for training and federation.
func (s *SwAV) ExtraParams() []*nn.Param { return []*nn.Param{s.prototypes} }

// Sinkhorn computes the SwAV soft assignment matrix from a score matrix
// (n×K): Q ∝ exp(scores/eps) balanced so columns (prototypes) receive equal
// mass, with rows renormalized to distributions at the end.
func Sinkhorn(scores *tensor.Tensor, eps float64, iters int) *tensor.Tensor {
	n, k := scores.Rows(), scores.Cols()
	q := tensor.New(n, k)
	if n == 0 || k == 0 {
		return q
	}
	// Stabilize: subtract the global max before exponentiating.
	max := scores.Max()
	for i := 0; i < n; i++ {
		srow := scores.Row(i)
		qrow := q.Row(i)
		for j := 0; j < k; j++ {
			qrow[j] = math.Exp((srow[j] - max) / eps)
		}
	}
	for it := 0; it < iters; it++ {
		// Column normalization: each prototype gets total mass n/k.
		for j := 0; j < k; j++ {
			var col float64
			for i := 0; i < n; i++ {
				col += q.At(i, j)
			}
			if col <= 0 {
				continue
			}
			scale := float64(n) / float64(k) / col
			for i := 0; i < n; i++ {
				q.Set(i, j, q.At(i, j)*scale)
			}
		}
		// Row normalization: each sample is one unit of mass.
		for i := 0; i < n; i++ {
			qrow := q.Row(i)
			var row float64
			for _, v := range qrow {
				row += v
			}
			if row <= 0 {
				continue
			}
			inv := 1 / row
			for j := range qrow {
				qrow[j] *= inv
			}
		}
	}
	return q
}
