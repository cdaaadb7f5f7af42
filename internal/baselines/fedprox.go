package baselines

import (
	"context"
	"fmt"
	"math/rand"

	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// fedProx implements FedProx (Li et al., MLSys 2020): FedAvg with a
// proximal term (μ/2)·‖w - w_global‖² added to every local objective,
// limiting client drift under heterogeneity. Not part of the paper's
// roster, but a standard point of comparison for non-i.i.d. FL that the
// library supports out of the box.
type fedProx struct {
	*supBase
	mu float64
}

var (
	_ fl.Trainer      = (*fedProx)(nil)
	_ fl.Personalizer = (*fedProx)(nil)
)

// NewFedProx builds FedProx with proximal strength mu (default 0.1 when
// non-positive). Personalization fine-tunes the head like FedAvg-FT so the
// comparison against the personalized methods is fair.
func NewFedProx(cfg Config, mu float64) *fl.Method {
	if mu <= 0 {
		mu = 0.1
	}
	f := &fedProx{supBase: newSupBase(cfg), mu: mu}
	return &fl.Method{
		Name:         "fedprox",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
	}
}

func (f *fedProx) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := f.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	cfg := f.cfg.Train
	cfg.ProxMu = f.mu
	cfg.ProxTarget = global
	loss, err := model.TrainSupervised(rng, m, client.Train, cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedprox client %d: %w", client.ID, err)
	}
	return &fl.Update{
		ClientID:   client.ID,
		Params:     nn.Values(m),
		NumSamples: client.Train.Len(),
		TrainLoss:  loss,
	}, nil
}

func (f *fedProx) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	m := f.newModel(rng)
	if err := nn.Unflatten(m, global); err != nil {
		return 0, err
	}
	return f.fineTuneHead(rng, m, client)
}
