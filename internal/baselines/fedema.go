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
	states  fl.ClientStates[*ssl.Trainable]
}

var (
	_ fl.Trainer      = (*fedEMA)(nil)
	_ fl.Personalizer = (*fedEMA)(nil)
	_ fl.Stateful     = (*fedEMA)(nil)
)

// CarriesRoundState implements fl.Stateful: Train EMA-merges the incoming
// global into the client's persisted local model instead of overwriting
// it, so a cold-started process (empty states map) would adopt the global
// outright and diverge. Resume paths refuse FedEMA.
func (f *fedEMA) CarriesRoundState() bool { return true }

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
	}
	return &fl.Method{
		Name:         "fedema",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
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
	st, known, err := f.states.Get(rng, client.ID, func(initRNG *rand.Rand) (*ssl.Trainable, error) {
		return ssl.NewTrainable(initRNG, f.arch, f.factory)
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema client state: %w", err)
	}
	if !known {
		// First participation: adopt the global model outright.
		if err := nn.Unflatten(st, global); err != nil {
			return nil, err
		}
	} else {
		local := nn.Values(st)
		div := param.L2Dist(global, local) / math.Max(nn.VecNorm2(global), 1e-12)
		mu := math.Min(f.lambda*div, 1)
		// local ← μ·local + (1-μ)·global, in the model itself
		if err := nn.VecLerpInto(local, global, local, mu); err != nil {
			return nil, fmt.Errorf("baselines: fedema client %d merge: %w", client.ID, err)
		}
	}
	rows := client.Train.X
	if f.cfg.UseUnlabeled && client.Unlabeled != nil {
		rows = append(append([][]float64{}, rows...), client.Unlabeled.X...)
	}
	loss, err := ssl.Train(rng, st, rows, f.train, nil)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedema client %d: %w", client.ID, err)
	}
	return &fl.Update{ClientID: client.ID, Params: nn.Values(st), NumSamples: len(rows), TrainLoss: loss}, nil
}

func (f *fedEMA) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	probe := &core.LinearProbe{Arch: f.arch, Factory: f.factory, NumClasses: f.cfg.NumClasses, Head: f.cfg.Head}
	return probe.Personalize(ctx, rng, client, global)
}
