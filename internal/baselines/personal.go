package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// apfl implements Adaptive Personalized Federated Learning (Deng et al.,
// 2020): each client maintains a personal model v alongside the federated
// model w; its personalized predictor is the mixture ᾱ·v + (1-ᾱ)·w. The
// federated model trains as in FedAvg; the personal model trains on the
// local objective of the mixed parameters (we train v directly on the local
// data, the standard first-order simplification).
type apfl struct {
	*supBase
	alpha float64

	mu       sync.Mutex
	personal map[int][]float64 // per-client v
}

var (
	_ fl.Trainer      = (*apfl)(nil)
	_ fl.Personalizer = (*apfl)(nil)
	_ fl.Stateful     = (*apfl)(nil)
)

// CarriesRoundState implements fl.Stateful: per-client personal vectors
// evolve across rounds and are read back at personalization time, so a
// cold-started process would personalize from the global initialization
// and the method's end-to-end outcome would diverge. Resume paths refuse
// APFL.
func (a *apfl) CarriesRoundState() bool { return true }

// NewAPFL builds APFL with mixture weight cfg.APFLAlpha.
func NewAPFL(cfg Config) *fl.Method {
	alpha := cfg.APFLAlpha
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.5
	}
	a := &apfl{supBase: newSupBase(cfg), alpha: alpha, personal: make(map[int][]float64)}
	return &fl.Method{
		Name:         "apfl",
		Trainer:      a,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: a,
		InitGlobal:   a.initGlobal,
	}
}

func (a *apfl) personalVec(id int, init []float64) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.personal[id]; ok {
		return v
	}
	v := append([]float64(nil), init...)
	a.personal[id] = v
	return v
}

func (a *apfl) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := a.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	loss, err := model.TrainSupervised(rng, m, client.Train, a.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("baselines: apfl client %d: %w", client.ID, err)
	}
	w := nn.Values(m)

	// Personal branch: one local pass updating v from the mixed point
	// α·v + (1-α)·w, then v takes the result.
	v := a.personalVec(client.ID, global)
	pm := a.newModel(rng)
	if err := nn.VecLerpInto(nn.Values(pm), w, v, a.alpha); err != nil {
		return nil, fmt.Errorf("baselines: apfl personal branch: %w", err)
	}
	pCfg := a.cfg.Train
	pCfg.Epochs = 1
	if _, err := model.TrainSupervised(rng, pm, client.Train, pCfg); err != nil {
		return nil, fmt.Errorf("baselines: apfl personal branch: %w", err)
	}
	copy(v, nn.Values(pm))

	return &fl.Update{ClientID: client.ID, Params: w, NumSamples: client.Train.Len(), TrainLoss: loss}, nil
}

func (a *apfl) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	v := a.personalVec(client.ID, global)
	m := a.newModel(rng)
	if err := nn.VecLerpInto(nn.Values(m), global, v, a.alpha); err != nil {
		return 0, fmt.Errorf("baselines: apfl mixture: %w", err)
	}
	// Light head refresh so novel clients (whose v is the global model) are
	// adapted too.
	return a.fineTuneHead(rng, m, client)
}

// ditto implements Ditto (Li et al., ICML 2021): the federated model trains
// as FedAvg; in parallel each client maintains a personal model trained
// with a proximal pull λ‖v - w_global‖² toward the latest global weights.
// Fairness comes from evaluating the personal models.
type ditto struct {
	*supBase
	lambda float64

	mu       sync.Mutex
	personal map[int][]float64
}

var (
	_ fl.Trainer      = (*ditto)(nil)
	_ fl.Personalizer = (*ditto)(nil)
	_ fl.Stateful     = (*ditto)(nil)
)

// CarriesRoundState implements fl.Stateful: like APFL, Ditto's personal
// models persist across rounds and seed the personalization stage, so
// resume paths refuse it rather than silently personalizing from scratch.
func (d *ditto) CarriesRoundState() bool { return true }

// NewDitto builds Ditto with proximal strength cfg.DittoLambda.
func NewDitto(cfg Config) *fl.Method {
	lambda := cfg.DittoLambda
	if lambda <= 0 {
		lambda = 0.5
	}
	d := &ditto{supBase: newSupBase(cfg), lambda: lambda, personal: make(map[int][]float64)}
	return &fl.Method{
		Name:         "ditto",
		Trainer:      d,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: d,
		InitGlobal:   d.initGlobal,
	}
}

func (d *ditto) personalVec(id int, init []float64) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.personal[id]; ok {
		return v
	}
	v := append([]float64(nil), init...)
	d.personal[id] = v
	return v
}

func (d *ditto) trainPersonal(rng *rand.Rand, client *partition.Client, global param.Vector, epochs int) (*model.SupModel, error) {
	v := d.personalVec(client.ID, global)
	pm := d.newModel(rng)
	if err := nn.Unflatten(pm, v); err != nil {
		return nil, err
	}
	cfg := d.cfg.Train
	cfg.Epochs = epochs
	cfg.ProxMu = d.lambda
	cfg.ProxTarget = global
	if _, err := model.TrainSupervised(rng, pm, client.Train, cfg); err != nil {
		return nil, fmt.Errorf("baselines: ditto personal: %w", err)
	}
	copy(v, nn.Values(pm))
	return pm, nil
}

func (d *ditto) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := d.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	loss, err := model.TrainSupervised(rng, m, client.Train, d.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("baselines: ditto client %d: %w", client.ID, err)
	}
	if _, err := d.trainPersonal(rng, client, global, d.cfg.Train.Epochs); err != nil {
		return nil, err
	}
	return &fl.Update{ClientID: client.ID, Params: nn.Values(m), NumSamples: client.Train.Len(), TrainLoss: loss}, nil
}

func (d *ditto) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	// Refresh (or, for novel clients, create) the personal model with the
	// personalization budget, then evaluate it.
	pm, err := d.trainPersonal(rng, client, global, d.cfg.Head.Epochs)
	if err != nil {
		return 0, err
	}
	return pm.Accuracy(client.Test), nil
}
