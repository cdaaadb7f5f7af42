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

// apfl implements Adaptive Personalized Federated Learning (Deng et al.,
// 2020): each client maintains a personal model v alongside the federated
// model w; its personalized predictor is the mixture ᾱ·v + (1-ᾱ)·w. The
// federated model trains as in FedAvg; the personal model trains on the
// local objective of the mixed parameters (we train v directly on the local
// data, the standard first-order simplification).
type apfl struct {
	*supBase
}

// apflAlpha is APFL's mixture weight ᾱ of the personal model.
const apflAlpha = 0.5

var (
	_ fl.Trainer      = (*apfl)(nil)
	_ fl.Personalizer = (*apfl)(nil)
)

// NewAPFL builds APFL with mixture weight apflAlpha. A client's row is its
// personal model v, read back at personalization time.
func NewAPFL(cfg Config) *fl.Method {
	a := &apfl{supBase: newSupBase(cfg)}
	a.clients = new(fl.ClientTable)
	return &fl.Method{
		Name:         "apfl",
		Trainer:      a,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: a,
		InitGlobal:   a.initGlobal,
		Clients:      a.clients,
	}
}

// personal returns client id's personal model, or — for a client never
// trained — the global it starts from.
func (b *supBase) personal(id int, global param.Vector) param.Vector {
	if v, ok := b.clients.Peek(id); ok {
		return v
	}
	return global
}

func (a *apfl) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	v, _, err := a.clients.Row(rng, client.ID, cloneOf(global))
	if err != nil {
		return nil, err
	}
	m, w, err := a.lendGlobal(global)
	if err != nil {
		return nil, err
	}
	u := &fl.Update{ClientID: client.ID, Params: w, NumSamples: client.Train.Len(), Lent: true}
	u.TrainLoss, err = model.TrainSupervised(rng, m, client.Train, a.cfg.Train)
	a.spares.Give(m)
	if err != nil {
		u.GiveBack()
		return nil, fmt.Errorf("baselines: apfl client %d: %w", client.ID, err)
	}

	// Personal branch: one local pass updating v from the mixed point
	// α·v + (1-α)·w, then v takes the result.
	pm := a.newModel(rng)
	if err := nn.VecLerpInto(nn.Values(pm), w, v, apflAlpha); err != nil {
		u.GiveBack()
		return nil, fmt.Errorf("baselines: apfl personal branch: %w", err)
	}
	pCfg := a.cfg.Train
	pCfg.Epochs = 1
	if _, err := model.TrainSupervised(rng, pm, client.Train, pCfg); err != nil {
		u.GiveBack()
		return nil, fmt.Errorf("baselines: apfl personal branch: %w", err)
	}
	copy(v, nn.Values(pm))
	return u, nil
}

func (a *apfl) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	m := a.newModel(rng)
	if err := nn.VecLerpInto(nn.Values(m), global, a.personal(client.ID, global), apflAlpha); err != nil {
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
}

// dittoLambda is Ditto's proximal strength λ.
const dittoLambda = 0.5

var (
	_ fl.Trainer      = (*ditto)(nil)
	_ fl.Personalizer = (*ditto)(nil)
)

// NewDitto builds Ditto with proximal strength dittoLambda. A client's row
// is its personal model, which seeds the personalization stage.
func NewDitto(cfg Config) *fl.Method {
	d := &ditto{supBase: newSupBase(cfg)}
	d.clients = new(fl.ClientTable)
	return &fl.Method{
		Name:         "ditto",
		Trainer:      d,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: d,
		InitGlobal:   d.initGlobal,
		Clients:      d.clients,
	}
}

// trainPersonal trains a model from the personal model v with the proximal
// pull toward global, and returns it; v is left as it was.
func (d *ditto) trainPersonal(rng *rand.Rand, client *partition.Client, v, global param.Vector, epochs int) (*model.SupModel, error) {
	pm := d.newModel(rng)
	if err := nn.Unflatten(pm, v); err != nil {
		return nil, err
	}
	cfg := d.cfg.Train
	cfg.Epochs = epochs
	cfg.ProxMu = dittoLambda
	cfg.ProxTarget = global
	if _, err := model.TrainSupervised(rng, pm, client.Train, cfg); err != nil {
		return nil, fmt.Errorf("baselines: ditto personal: %w", err)
	}
	return pm, nil
}

func (d *ditto) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	v, _, err := d.clients.Row(rng, client.ID, cloneOf(global))
	if err != nil {
		return nil, err
	}
	m, w, err := d.lendGlobal(global)
	if err != nil {
		return nil, err
	}
	u := &fl.Update{ClientID: client.ID, Params: w, NumSamples: client.Train.Len(), Lent: true}
	u.TrainLoss, err = model.TrainSupervised(rng, m, client.Train, d.cfg.Train)
	d.spares.Give(m)
	if err != nil {
		u.GiveBack()
		return nil, fmt.Errorf("baselines: ditto client %d: %w", client.ID, err)
	}
	pm, err := d.trainPersonal(rng, client, v, global, d.cfg.Train.Epochs)
	if err != nil {
		u.GiveBack()
		return nil, err
	}
	copy(v, nn.Values(pm))
	return u, nil
}

func (d *ditto) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	// Refresh (or, for novel clients, create) the personal model with the
	// personalization budget, then evaluate it.
	pm, err := d.trainPersonal(rng, client, d.personal(client.ID, global), global, d.cfg.Head.Epochs)
	if err != nil {
		return 0, err
	}
	return pm.Accuracy(client.Test), nil
}
