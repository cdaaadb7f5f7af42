package ssl

import (
	"fmt"
	"math/rand"

	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// SMoG implements "Synchronous Momentum Grouping" (Pang et al., ECCV 2022)
// at the scale of this reproduction: features are grouped into momentum-
// updated group centers (replacing instance discrimination with group
// discrimination). Each step classifies every projection against the group
// centers; centers then move toward their assigned members. Group centers
// are synchronized through federation as extra parameters (they are updated
// by momentum, not by gradient, but still averaged across clients — the
// "synchronous" part).
type SMoG struct {
	Tau      float64
	Momentum float64 // center update momentum
	centers  *nn.Param
	started  bool
}

var _ Method = (*SMoG)(nil)

// NewSMoG returns a factory producing SMoG with k groups.
func NewSMoG(k int, tau, momentum float64) Factory {
	return func(rng *rand.Rand, b *Backbone) (Method, error) {
		if k < 2 {
			return nil, fmt.Errorf("ssl: smog needs ≥2 groups, got %d", k)
		}
		c := nn.NewParam("smog.centers", k, b.Arch.ProjDim)
		c.InitHe(rng, b.Arch.ProjDim)
		normed := tensor.L2NormalizeRows(c.Value, 1e-12)
		copy(c.Value.Data(), normed.Data())
		return &SMoG{Tau: tau, Momentum: momentum, centers: c}, nil
	}
}

// Name implements Method.
func (s *SMoG) Name() string { return "smog" }

// Loss classifies both views' projections against the group centers.
func (s *SMoG) Loss(ctx *StepContext) *nn.Node {
	h := nn.ConcatRows(ctx.H1, ctx.H2)
	hn := nn.L2NormalizeRows(h)
	centers := tensor.L2NormalizeRows(s.centers.Value, 1e-12)
	assign := nearestRows(hn.Value, centers)
	s.updateCenters(hn.Value, assign)
	logits := nn.Scale(nn.MatMulTransB(hn, nn.Input(centers)), 1/s.Tau)
	return nn.CrossEntropy(logits, assign)
}

// nearestRows assigns each row of x to its highest-dot-product row of c.
func nearestRows(x, c *tensor.Tensor) []int {
	n := x.Rows()
	k := c.Rows()
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestV := 0, tensor.Dot(x.Row(i), c.Row(0))
		for j := 1; j < k; j++ {
			if v := tensor.Dot(x.Row(i), c.Row(j)); v > bestV {
				best, bestV = j, v
			}
		}
		out[i] = best
	}
	return out
}

// updateCenters moves each group's center toward the mean of its assigned
// features with momentum (the synchronous momentum grouping update).
func (s *SMoG) updateCenters(feats *tensor.Tensor, assign []int) {
	k := s.centers.Value.Rows()
	d := s.centers.Value.Cols()
	sums := tensor.New(k, d)
	counts := make([]int, k)
	for i, a := range assign {
		counts[a]++
		row := sums.Row(a)
		f := feats.Row(i)
		for j := 0; j < d; j++ {
			row[j] += f[j]
		}
	}
	for g := 0; g < k; g++ {
		if counts[g] == 0 {
			continue
		}
		crow := s.centers.Value.Row(g)
		mrow := sums.Row(g)
		inv := 1 / float64(counts[g])
		for j := 0; j < d; j++ {
			crow[j] = s.Momentum*crow[j] + (1-s.Momentum)*mrow[j]*inv
		}
	}
	normed := tensor.L2NormalizeRows(s.centers.Value, 1e-12)
	copy(s.centers.Value.Data(), normed.Data())
	s.started = true
}

// AfterStep implements Method (centers are updated inside Loss so the
// assignment and the update see the same features).
func (s *SMoG) AfterStep(*Backbone) {}

// ExtraParams exposes the group centers for federation (averaged across
// clients even though they receive no gradient locally).
func (s *SMoG) ExtraParams() []*nn.Param { return []*nn.Param{s.centers} }

// CarriesLocalState implements Method: the momentum-updated centers are
// federated via ExtraParams (overwritten by each incoming global), so no
// method-local state survives across rounds.
func (s *SMoG) CarriesLocalState() bool { return false }
