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
	"calibre/internal/tensor"
)

// fedAvg is the canonical McMahan et al. (AISTATS 2017) algorithm: every
// client trains the full model locally; the server averages weighted by
// sample count.
type fedAvg struct {
	*supBase
	// fineTune selects FedAvg-FT: in the personalization stage the head is
	// fine-tuned on the local training set before evaluation.
	fineTune bool
}

var (
	_ fl.Trainer      = (*fedAvg)(nil)
	_ fl.Personalizer = (*fedAvg)(nil)
)

// NewFedAvg builds FedAvg (global model evaluated directly on local tests).
func NewFedAvg(cfg Config) *fl.Method {
	f := &fedAvg{supBase: newSupBase(cfg)}
	return &fl.Method{
		Name:         "fedavg",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
	}
}

// NewFedAvgFT builds FedAvg-FT: FedAvg training plus local head fine-tuning
// at personalization time.
func NewFedAvgFT(cfg Config) *fl.Method {
	f := &fedAvg{supBase: newSupBase(cfg), fineTune: true}
	return &fl.Method{
		Name:         "fedavg-ft",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
	}
}

func (f *fedAvg) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := f.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	loss, err := model.TrainSupervised(rng, m, client.Train, f.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("baselines: fedavg client %d: %w", client.ID, err)
	}
	return &fl.Update{
		ClientID:   client.ID,
		Params:     nn.Values(m),
		NumSamples: client.Train.Len(),
		TrainLoss:  loss,
	}, nil
}

func (f *fedAvg) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	m := f.newModel(rng)
	if err := nn.Unflatten(m, global); err != nil {
		return 0, err
	}
	if !f.fineTune {
		return m.Accuracy(client.Test), nil
	}
	return f.fineTuneHead(rng, m, client)
}

// perFedAvg approximates PerFedAvg (Fallah et al., NeurIPS 2020) with its
// standard first-order variant: federated training is Reptile-style (local
// multi-step SGD, server averaging — the inner loop), and personalization
// performs test-time adaptation of the whole model on the client's local
// data. See ARCHITECTURE.md "Synthetic substitutions".
type perFedAvg struct {
	*supBase
	adaptEpochs int
	adaptLR     float64
}

var (
	_ fl.Trainer      = (*perFedAvg)(nil)
	_ fl.Personalizer = (*perFedAvg)(nil)
)

// NewPerFedAvg builds the first-order PerFedAvg approximation.
func NewPerFedAvg(cfg Config) *fl.Method {
	f := &perFedAvg{supBase: newSupBase(cfg), adaptEpochs: 5, adaptLR: cfg.Train.LR / 2}
	return &fl.Method{
		Name:         "perfedavg",
		Trainer:      f,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: f,
		InitGlobal:   f.initGlobal,
	}
}

func (f *perFedAvg) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := f.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	// Inner loop at half the outer learning rate, mimicking the meta
	// inner/outer step split.
	cfg := f.cfg.Train
	cfg.LR = f.adaptLR
	loss, err := model.TrainSupervised(rng, m, client.Train, cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: perfedavg client %d: %w", client.ID, err)
	}
	return &fl.Update{ClientID: client.ID, Params: nn.Values(m), NumSamples: client.Train.Len(), TrainLoss: loss}, nil
}

func (f *perFedAvg) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	m := f.newModel(rng)
	if err := nn.Unflatten(m, global); err != nil {
		return 0, err
	}
	cfg := f.cfg.Train
	cfg.Epochs = f.adaptEpochs
	cfg.LR = f.adaptLR
	if _, err := model.TrainSupervised(rng, m, client.Train, cfg); err != nil {
		return 0, fmt.Errorf("baselines: perfedavg adapt: %w", err)
	}
	return m.Accuracy(client.Test), nil
}

// script is the no-federation control: each client trains a linear
// classifier directly on its raw local samples. Script-Fair stops after the
// personalization budget (10 epochs); Script-Convergent trains to
// convergence (cfg.ScriptEpochs).
type script struct {
	*supBase
	epochs int
}

var (
	_ fl.Trainer      = (*script)(nil)
	_ fl.Personalizer = (*script)(nil)
)

// NewScriptFair builds the 10-epoch local-only baseline.
func NewScriptFair(cfg Config) *fl.Method {
	s := &script{supBase: newSupBase(cfg), epochs: cfg.Head.Epochs}
	return &fl.Method{
		Name:         "script-fair",
		Trainer:      s,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: s,
		InitGlobal:   s.initGlobal,
	}
}

// NewScriptConvergent builds the trained-to-convergence local-only baseline.
func NewScriptConvergent(cfg Config) *fl.Method {
	epochs := cfg.ScriptEpochs
	if epochs < 1 {
		epochs = 80
	}
	s := &script{supBase: newSupBase(cfg), epochs: epochs}
	return &fl.Method{
		Name:         "script-convergent",
		Trainer:      s,
		Aggregator:   fl.WeightedAverage{},
		Personalizer: s,
		InitGlobal:   s.initGlobal,
	}
}

// Train is a no-op: Script never federates. It returns the global vector
// unchanged so the simulator's aggregation is the identity.
func (s *script) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	return &fl.Update{ClientID: client.ID, Params: append([]float64(nil), global...), NumSamples: client.Train.Len()}, nil
}

func (s *script) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	// Linear classifier on the raw observation space.
	cfg := s.cfg.Head
	cfg.Epochs = s.epochs
	identity := func(x *tensor.Tensor) *tensor.Tensor { return x }
	return model.LinearProbeAccuracy(rng, identity, client.Train, client.Test, s.cfg.NumClasses, cfg)
}
