package ssl

import (
	"fmt"
	"math/rand"

	"calibre/internal/nn"
)

// BYOL implements "Bootstrap Your Own Latent" (Grill et al., NeurIPS 2020):
// an online network (backbone + predictor) regresses the projection of a
// slowly moving exponential-moving-average target network; the loss is the
// symmetric negative cosine similarity. The predictor is trained (and
// federated); the target network is method-local state.
type BYOL struct {
	Momentum  float64 // EMA decay for the target network
	predictor *nn.Sequential
	target    *Backbone
}

var _ Local = (*BYOL)(nil)

// NewBYOL returns a factory producing BYOL with the given target momentum
// (the paper uses 0.99-0.999).
func NewBYOL(momentum float64) Factory {
	return func(rng *rand.Rand, b *Backbone) (Method, error) {
		target, err := b.Clone(rng)
		if err != nil {
			return nil, fmt.Errorf("ssl: byol target init: %w", err)
		}
		d := b.Arch.ProjDim
		return &BYOL{
			Momentum:  momentum,
			predictor: nn.MLP(rng, "byol.pred", d, d, d),
			target:    target,
		}, nil
	}
}

// Name implements Method.
func (b *BYOL) Name() string { return "byol" }

// Loss computes the symmetric BYOL objective.
func (b *BYOL) Loss(ctx *StepContext) *nn.Node {
	// Online predictions for both views.
	p1 := b.predictor.Forward(ctx.H1)
	p2 := b.predictor.Forward(ctx.H2)
	// Target projections (no gradient).
	t1 := b.target.Project(b.target.Encode(ctx.View1)).Value
	t2 := b.target.Project(b.target.Encode(ctx.View2)).Value
	l1 := nn.NegCosineConst(p1, t2)
	l2 := nn.NegCosineConst(p2, t1)
	return nn.Scale(nn.Add(l1, l2), 0.5)
}

// AfterStep moves the target network toward the online backbone.
func (b *BYOL) AfterStep(online *Backbone) {
	// CopyParams/EMAUpdate cannot fail here: target was cloned from online.
	if err := nn.EMAUpdate(b.target.Encoder, online.Encoder, b.Momentum); err != nil {
		panic(err)
	}
	if err := nn.EMAUpdate(b.target.Projector, online.Projector, b.Momentum); err != nil {
		panic(err)
	}
}

// ExtraParams exposes the predictor for training and federation.
func (b *BYOL) ExtraParams() []*nn.Param { return b.predictor.Params() }

// LocalState implements Local: the EMA target network, which evolves
// across a client's local updates and is never federated.
func (b *BYOL) LocalState() nn.Module { return b.target }

// SimSiam implements "Exploring Simple Siamese Representation Learning"
// (Chen & He, CVPR 2021): BYOL without the momentum target — the stop-
// gradient branch is the online projection itself.
type SimSiam struct {
	predictor *nn.Sequential
}

var _ Method = (*SimSiam)(nil)

// NewSimSiam returns a factory producing SimSiam.
func NewSimSiam() Factory {
	return func(rng *rand.Rand, b *Backbone) (Method, error) {
		d := b.Arch.ProjDim
		return &SimSiam{predictor: nn.MLP(rng, "simsiam.pred", d, d, d)}, nil
	}
}

// Name implements Method.
func (s *SimSiam) Name() string { return "simsiam" }

// Loss computes the symmetric stop-gradient negative cosine objective.
func (s *SimSiam) Loss(ctx *StepContext) *nn.Node {
	p1 := s.predictor.Forward(ctx.H1)
	p2 := s.predictor.Forward(ctx.H2)
	l1 := nn.NegCosineConst(p1, ctx.H2.Value) // stop-grad on h2
	l2 := nn.NegCosineConst(p2, ctx.H1.Value) // stop-grad on h1
	return nn.Scale(nn.Add(l1, l2), 0.5)
}

// AfterStep implements Method (no momentum state).
func (s *SimSiam) AfterStep(*Backbone) {}

// ExtraParams exposes the predictor.
func (s *SimSiam) ExtraParams() []*nn.Param { return s.predictor.Params() }
