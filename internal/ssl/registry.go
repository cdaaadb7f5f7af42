package ssl

import (
	"fmt"
	"math/rand"
	"sort"

	"calibre/internal/data"
	"calibre/internal/nn"
)

// Standard hyperparameters shared by the experiments (paper §V-A).
const (
	DefaultTau          = 0.5
	DefaultEMAMomentum  = 0.99
	DefaultQueueSize    = 256
	DefaultSwAVProtos   = 30
	DefaultSMoGGroups   = 30
	DefaultSMoGMomentum = 0.99
)

// Factories returns the named standard factories for every SSL method the
// paper evaluates.
func Factories() map[string]Factory {
	return map[string]Factory{
		"simclr":  NewSimCLR(DefaultTau),
		"byol":    NewBYOL(DefaultEMAMomentum),
		"simsiam": NewSimSiam(),
		"mocov2":  NewMoCoV2(DefaultTau, DefaultEMAMomentum, DefaultQueueSize),
		"swav":    NewSwAV(DefaultSwAVProtos, DefaultTau),
		"smog":    NewSMoG(DefaultSMoGGroups, DefaultTau, DefaultSMoGMomentum),
		// vicreg extends beyond the paper's six methods (see vicreg.go);
		// it is not part of the figure rosters but plugs into the same
		// pfl-*/calibre-* pipelines.
		"vicreg": NewVICReg(),
	}
}

// MethodNames lists the registered method names in sorted order.
func MethodNames() []string {
	fs := Factories()
	names := make([]string, 0, len(fs))
	for n := range fs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the standard factory for name.
func Lookup(name string) (Factory, error) {
	f, ok := Factories()[name]
	if !ok {
		return nil, fmt.Errorf("ssl: unknown method %q (have %v)", name, MethodNames())
	}
	return f, nil
}

// TrainConfig controls a local self-supervised training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	ClipNorm  float64 // 0 disables clipping
	Augment   data.Augmenter
}

// DefaultTrainConfig returns the local-update hyperparameters used by the
// experiments (3 local epochs, batch 32, SGD momentum 0.9).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:    3,
		BatchSize: 32,
		LR:        0.03,
		Momentum:  0.9,
		ClipNorm:  5,
		Augment:   data.DefaultAugmenter(),
	}
}

// LossHook lets callers (Calibre) extend the per-step loss. It receives the
// step context and the method's own loss node and returns the total loss;
// an error fails the step, and Train with it.
type LossHook func(ctx *StepContext, methodLoss *nn.Node) (*nn.Node, error)

// Train runs the local SSL loop over rows (a client's raw samples), mutating
// the trainable's parameters in place. hook may be nil. It returns the mean
// total loss per step.
func Train(rng *rand.Rand, t *Trainable, rows [][]float64, cfg TrainConfig, hook LossHook) (float64, error) {
	if len(rows) < 2 {
		return 0, nil // not enough samples to form a contrastive batch
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 2 {
		return 0, fmt.Errorf("ssl: bad train config %+v", cfg)
	}
	stepsPerEpoch := (len(rows) + cfg.BatchSize - 1) / cfg.BatchSize
	batcher := data.NewBatcher(rng, len(rows), cfg.BatchSize)
	tape := t.stepTape()
	// One context serves every step: like the views and the graph, what it
	// holds dies at the step's Reset.
	ctx := &StepContext{RNG: rng, Backbone: t.Backbone, Tape: tape, Arena: t.Arena(), KMeans: t.KMeans()}
	dim := len(rows[0])
	// Before the optimizer binds to the parameters' storage: a trainable
	// assembled by hand is laid out here.
	grads := nn.Grads(t)
	loop := nn.StepLoop{
		Tape:     tape,
		Opt:      nn.NewSGD(t, cfg.LR, cfg.Momentum, 0),
		Grads:    grads,
		ClipNorm: cfg.ClipNorm,
		Loss: func() (*nn.Node, error) {
			idx, _ := batcher.Next() // two rows or more: there is always a batch
			v1, v2 := tape.Tensor(len(idx), dim), tape.Tensor(len(idx), dim)
			cfg.Augment.TwoViewsInto(rng, v1, v2, rows, idx)
			ctx.forward(v1, v2)
			loss := t.Method.Loss(ctx)
			if hook != nil {
				return hook(ctx, loss)
			}
			return loss, nil
		},
		// Methods deep-copy anything they keep past the step (MoCo's key
		// queue, say): the loop recycles the step's buffers right after.
		AfterStep: func() { t.Method.AfterStep(t.Backbone) },
	}
	loss, err := loop.Run(cfg.Epochs * stepsPerEpoch)
	if err != nil {
		return 0, fmt.Errorf("ssl: %w", err)
	}
	return loss, nil
}
