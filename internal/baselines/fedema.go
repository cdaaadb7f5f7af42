package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/core"
	"calibre/internal/fl"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// fedEMA implements FedEMA (Zhuang et al., ICLR 2022): federated
// self-supervised learning with BYOL where each client merges the incoming
// global model into its local model by a divergence-aware exponential
// moving average
//
//	w_local ← μ·w_local + (1-μ)·w_global,   μ = min(λ·‖w_global - w_local‖, 1)
//
// so clients whose models drifted far from the global adopt more of their
// own weights. Personalization is the standard linear probe.
type fedEMA struct {
	cfg    Config
	arch   ssl.Arch
	lambda float64
	train  ssl.TrainConfig

	factory ssl.Factory
	// clients holds each client's row: its local model, then its BYOL
	// target network.
	clients *fl.ClientTable
	spares  nn.Spares[*ssl.Trainable]
}

var (
	_ fl.Trainer      = (*fedEMA)(nil)
	_ fl.Personalizer = (*fedEMA)(nil)
)

// NewFedEMA builds FedEMA on BYOL.
func NewFedEMA(cfg Config) *fl.Method {
	lambda := cfg.EMAMomentum
	if lambda <= 0 {
		lambda = 1.0 // the paper's autoscaler targets μ≈λ‖Δw‖; λ=1 by default
	}
	trainCfg := ssl.DefaultTrainConfig()
	trainCfg.Epochs = 2 * cfg.Train.Epochs // same SSL compute budget as the pfl-*/calibre-* family
	trainCfg.BatchSize = cfg.Train.BatchSize
	trainCfg.Augment = cfg.Augment
	f := &fedEMA{
		cfg:     cfg,
		arch:    cfg.Arch,
		lambda:  lambda,
		train:   trainCfg,
		factory: ssl.NewBYOL(ssl.DefaultEMAMomentum),
		clients: new(fl.ClientTable),
	}
	return &fl.Method{
		Name:         "fedema",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
		Clients:      f.clients,
	}
}

func (f *fedEMA) initGlobal(rng *rand.Rand) (param.Vector, error) {
	st, err := ssl.NewTrainable(rng, f.arch, f.factory)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema init: %w", err)
	}
	return nn.Flatten(st), nil
}

func (f *fedEMA) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	// First participation adopts the global model outright; the target
	// network starts as the one a trainable built from the row's draw has.
	row, known, err := f.clients.Row(rng, client.ID, func(initRNG *rand.Rand) (param.Vector, error) {
		st, err := ssl.NewTrainable(initRNG, f.arch, f.factory)
		if err != nil {
			return nil, err
		}
		return append(global.Clone(), nn.Values(st.LocalState())...), nil
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema client state: %w", err)
	}
	if len(row) < len(global) {
		return nil, fmt.Errorf("baselines: fedema client %d: row of %d values, shorter than the global's %d", client.ID, len(row), len(global))
	}
	local, target := row[:len(global):len(global)], row[len(global):]
	if known {
		div := param.L2Dist(global, local) / math.Max(nn.VecNorm2(global), 1e-12)
		mu := math.Min(f.lambda*div, 1)
		// local ← μ·local + (1-μ)·global, in the row itself
		if err := nn.VecLerpInto(local, global, local, mu); err != nil {
			return nil, fmt.Errorf("baselines: fedema client %d merge: %w", client.ID, err)
		}
	}
	st, err := f.spares.Take(local, func() (*ssl.Trainable, error) {
		return ssl.NewTrainable(rand.New(rand.NewSource(0)), f.arch, f.factory) // values never read
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema client %d: %w", client.ID, err)
	}
	if err := st.BindLocal(target); err != nil {
		f.spares.Give(st)
		return nil, fmt.Errorf("baselines: fedema client %d: %w", client.ID, err)
	}
	rows := client.Train.X
	if f.cfg.UseUnlabeled {
		rows = client.SSLRows()
	}
	loss, err := ssl.Train(rng, st, rows, f.train, nil)
	st.BindLocal(nil)
	f.spares.Give(st)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema client %d: %w", client.ID, err)
	}
	return &fl.Update{ClientID: client.ID, Params: local, NumSamples: len(rows), TrainLoss: loss}, nil
}

func (f *fedEMA) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	probe := &core.LinearProbe{Arch: f.arch, Factory: f.factory, NumClasses: f.cfg.NumClasses, Head: f.cfg.Head}
	return probe.Personalize(ctx, rng, client, global)
}
