package ssl

import (
	"math/rand"

	"calibre/internal/nn"
)

// SimCLR implements "A Simple Framework for Contrastive Learning of Visual
// Representations" (Chen et al., ICML 2020): the NT-Xent loss over the
// stacked projections of two augmented views.
type SimCLR struct {
	Tau float64
}

var _ Method = (*SimCLR)(nil)

// NewSimCLR returns a factory producing SimCLR with the given temperature.
func NewSimCLR(tau float64) Factory {
	return func(_ *rand.Rand, _ *Backbone) (Method, error) {
		return &SimCLR{Tau: tau}, nil
	}
}

// Name implements Method.
func (s *SimCLR) Name() string { return "simclr" }

// Loss is NT-Xent over [h1; h2] with positives (i, i+N).
func (s *SimCLR) Loss(ctx *StepContext) *nn.Node {
	return nn.PairNTXent(ctx.H1, ctx.H2, s.Tau)
}

// AfterStep implements Method (no state).
func (s *SimCLR) AfterStep(*Backbone) {}

// ExtraParams implements Method (none).
func (s *SimCLR) ExtraParams() []*nn.Param { return nil }
