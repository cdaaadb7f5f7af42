package ssl

import (
	"math/rand"

	"calibre/internal/nn"
)

// VICReg implements "Variance-Invariance-Covariance Regularization"
// (Bardes, Ponce & LeCun, ICLR 2022) — an extension beyond the six SSL
// methods the paper evaluates, included to demonstrate that Calibre's
// calibration layer is SSL-method-agnostic. The loss combines:
//
//   - invariance: mean squared distance between the two views' projections,
//   - variance: a hinge keeping every embedding dimension's std above γ,
//   - covariance: a penalty decorrelating embedding dimensions.
type VICReg struct {
	// LambdaI, MuV, NuC weigh invariance/variance/covariance (paper: 25,
	// 25, 1).
	LambdaI, MuV, NuC float64
	// Gamma is the variance-hinge target std (paper: 1).
	Gamma float64
}

var _ Method = (*VICReg)(nil)

// NewVICReg returns a factory producing VICReg with the reference weights.
func NewVICReg() Factory {
	return func(_ *rand.Rand, _ *Backbone) (Method, error) {
		return &VICReg{LambdaI: 25, MuV: 25, NuC: 1, Gamma: 1}, nil
	}
}

// Name implements Method.
func (v *VICReg) Name() string { return "vicreg" }

// Loss implements Method.
func (v *VICReg) Loss(ctx *StepContext) *nn.Node {
	diff := nn.Sub(ctx.H1, ctx.H2)
	inv := nn.Scale(nn.SumSquares(diff), 1/float64(ctx.H1.Value.Len()))
	variance := nn.Add(
		nn.VarianceHinge(ctx.H1, v.Gamma, 1e-4),
		nn.VarianceHinge(ctx.H2, v.Gamma, 1e-4),
	)
	covariance := nn.Add(nn.CovariancePenalty(ctx.H1), nn.CovariancePenalty(ctx.H2))
	total := nn.Add(
		nn.Scale(inv, v.LambdaI),
		nn.Add(nn.Scale(variance, v.MuV), nn.Scale(covariance, v.NuC)),
	)
	// Normalize to a magnitude comparable with the other objectives so a
	// shared learning rate works.
	return nn.Scale(total, 1.0/25)
}

// AfterStep implements Method (stateless).
func (v *VICReg) AfterStep(*Backbone) {}

// ExtraParams implements Method (none).
func (v *VICReg) ExtraParams() []*nn.Param { return nil }
