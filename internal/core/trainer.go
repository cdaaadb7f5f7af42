package core

import (
	"context"
	"fmt"
	"math/rand"

	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// SSLTrainer is the federated local trainer shared by plain pFL-SSL and
// Calibre: each client keeps a Trainable (backbone + SSL method state),
// loads the global vector into it, runs the local SSL loop (optionally with
// Calibre's regularizer hook), and reports its updated parameters plus —
// for Calibre — its prototype divergence rate.
type SSLTrainer struct {
	Arch    ssl.Arch
	Factory ssl.Factory
	Cfg     ssl.TrainConfig

	// Reg, when non-nil, applies Calibre's prototype regularizers.
	Reg *Regularizer
	// ComputeDivergence reports the divergence rate in updates (used with
	// fl.DivergenceWeighted aggregation).
	ComputeDivergence bool
	// DivergenceClusters is K for the divergence KMeans (defaults to 10).
	DivergenceClusters int
	// UseUnlabeled includes the client's unlabeled pool in SSL training
	// (STL-10's advantage for SSL methods).
	UseUnlabeled bool

	states fl.ClientStates[*clientState]
}

// clientState is what a client keeps from round to round: its trainable
// (with the arena and clustering workspace behind its training steps) and
// the row table its local SSL loop draws batches from.
type clientState struct {
	*ssl.Trainable
	rows [][]float64 // the client's labelled rows, then (UseUnlabeled) its unlabelled pool
}

var (
	_ fl.Trainer  = (*SSLTrainer)(nil)
	_ fl.Stateful = (*SSLTrainer)(nil)
)

// CarriesRoundState implements fl.Stateful by asking the SSL method:
// momentum flavors (BYOL, MoCo) keep an EMA target network or key queue
// inside the cached per-client Trainable that nn.Unflatten does not
// overwrite, so a cold-started process cannot resume them
// bit-identically. The answer comes from a throwaway probe instance —
// statefulness is a property of the flavor, not of any particular
// weights. A factory that cannot even construct is reported stateful so
// resume fails closed (the real error surfaces on the training path).
func (t *SSLTrainer) CarriesRoundState() bool {
	probe, err := ssl.NewTrainable(rand.New(rand.NewSource(0)), t.Arch, t.Factory)
	if err != nil {
		return true
	}
	return probe.Method.CarriesLocalState()
}

// Train implements fl.Trainer.
func (t *SSLTrainer) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, _, err := t.states.Get(rng, client.ID, func(initRNG *rand.Rand) (*clientState, error) {
		tr, err := ssl.NewTrainable(initRNG, t.Arch, t.Factory)
		if err != nil {
			return nil, err
		}
		rows := client.Train.X
		if t.UseUnlabeled && client.Unlabeled != nil {
			rows = append(append([][]float64{}, rows...), client.Unlabeled.X...)
		}
		return &clientState{Trainable: tr, rows: rows}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: method init for client %d: %w", client.ID, err)
	}
	if err := nn.Unflatten(st, global); err != nil {
		return nil, fmt.Errorf("core: load global into client %d: %w", client.ID, err)
	}
	var hook ssl.LossHook
	if t.Reg != nil && round >= t.Reg.Opts.WarmupRounds {
		hook = t.Reg.Apply
	}
	loss, err := ssl.Train(rng, st.Trainable, st.rows, t.Cfg, hook)
	if err != nil {
		return nil, fmt.Errorf("core: local SSL update for client %d: %w", client.ID, err)
	}
	update := &fl.Update{
		ClientID:   client.ID,
		Params:     nn.Values(st), // lent until the round closes (fl.Trainer)
		NumSamples: len(st.rows),
		TrainLoss:  loss,
	}
	if t.ComputeDivergence {
		k := t.DivergenceClusters
		if k < 2 {
			k = 10
		}
		enc := st.Backbone.EncodeValue(batchOf(client.Train.X))
		div, err := divergence(st.Arena(), st.KMeans(), rng, enc, k)
		if err != nil {
			return nil, fmt.Errorf("core: divergence for client %d: %w", client.ID, err)
		}
		update.Divergence = div
	}
	return update, nil
}

func batchOf(rows [][]float64) *tensor.Tensor {
	if len(rows) == 0 {
		return tensor.New(0, 0)
	}
	out := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		out.SetRow(i, r)
	}
	return out
}

// InitGlobal builds the initial flattened global vector for this trainer's
// architecture + method (every client shares the layout).
func (t *SSLTrainer) InitGlobal(rng *rand.Rand) (param.Vector, error) {
	st, err := ssl.NewTrainable(rng, t.Arch, t.Factory)
	if err != nil {
		return nil, fmt.Errorf("core: init global: %w", err)
	}
	return nn.Flatten(st), nil
}

// LinearProbe is the personalization stage shared by all two-stage SSL
// methods: reconstruct the encoder from the global vector, extract features
// for the client's local train/test sets, train a linear head (10 epochs of
// SGD at 0.05 in the paper) and report the local test accuracy.
type LinearProbe struct {
	Arch       ssl.Arch
	Factory    ssl.Factory
	NumClasses int
	Head       model.HeadConfig
}

var _ fl.Personalizer = (*LinearProbe)(nil)

// Personalize implements fl.Personalizer.
func (p *LinearProbe) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	st, err := ssl.NewTrainable(rng, p.Arch, p.Factory)
	if err != nil {
		return 0, fmt.Errorf("core: probe init: %w", err)
	}
	if err := nn.Unflatten(st, global); err != nil {
		return 0, fmt.Errorf("core: probe load global: %w", err)
	}
	return model.LinearProbeAccuracy(rng, st.Backbone.EncodeValue, client.Train, client.Test, p.NumClasses, p.Head)
}

// Config assembles a complete Calibre or pFL-SSL method.
type Config struct {
	Arch       ssl.Arch
	NumClasses int
	SSLName    string // one of ssl.MethodNames()
	Train      ssl.TrainConfig
	Head       model.HeadConfig
	Opts       Options
	// UseUnlabeled lets SSL training consume clients' unlabeled pools.
	UseUnlabeled bool
}

// DefaultConfig returns a ready-to-run configuration for the given
// architecture, SSL flavor and class count.
func DefaultConfig(arch ssl.Arch, sslName string, numClasses int) Config {
	return Config{
		Arch:         arch,
		NumClasses:   numClasses,
		SSLName:      sslName,
		Train:        ssl.DefaultTrainConfig(),
		Head:         model.DefaultHeadConfig(),
		Opts:         DefaultOptions(),
		UseUnlabeled: true,
	}
}

// New builds the full Calibre method: SSL training with prototype
// regularizers, divergence-weighted aggregation, linear-probe
// personalization.
func New(cfg Config) (*fl.Method, error) {
	factory, err := ssl.Lookup(cfg.SSLName)
	if err != nil {
		return nil, err
	}
	reg, err := NewRegularizer(cfg.Opts)
	if err != nil {
		return nil, err
	}
	trainer := &SSLTrainer{
		Arch:               cfg.Arch,
		Factory:            factory,
		Cfg:                cfg.Train,
		Reg:                reg,
		ComputeDivergence:  true,
		DivergenceClusters: cfg.Opts.NumClusters,
		UseUnlabeled:       cfg.UseUnlabeled,
	}
	return &fl.Method{
		Name:       fmt.Sprintf("calibre-%s", cfg.SSLName),
		Trainer:    trainer,
		Aggregator: &fl.DivergenceWeighted{Temperature: cfg.Opts.AggTemperature},
		Personalizer: &LinearProbe{
			Arch:       cfg.Arch,
			Factory:    factory,
			NumClasses: cfg.NumClasses,
			Head:       cfg.Head,
		},
		InitGlobal: trainer.InitGlobal,
	}, nil
}

// NewPFLSSL builds the uncalibrated pFL-SSL baseline (paper §III-B): the
// same two-stage pipeline with plain SSL training and FedAvg aggregation.
func NewPFLSSL(cfg Config) (*fl.Method, error) {
	factory, err := ssl.Lookup(cfg.SSLName)
	if err != nil {
		return nil, err
	}
	trainer := &SSLTrainer{
		Arch:         cfg.Arch,
		Factory:      factory,
		Cfg:          cfg.Train,
		UseUnlabeled: cfg.UseUnlabeled,
	}
	return &fl.Method{
		Name:       fmt.Sprintf("pfl-%s", cfg.SSLName),
		Trainer:    trainer,
		Aggregator: fl.WeightedAverage{},
		Personalizer: &LinearProbe{
			Arch:       cfg.Arch,
			Factory:    factory,
			NumClasses: cfg.NumClasses,
			Head:       cfg.Head,
		},
		InitGlobal: trainer.InitGlobal,
	}, nil
}
