// Package baselines implements every comparison method in the paper's
// evaluation (§V-A): FedAvg(-FT), SCAFFOLD(-FT), LG-FedAvg, FedPer, FedRep,
// FedBABU, PerFedAvg, APFL, Ditto, FedEMA, the local-only Script baselines,
// and — via internal/core — the uncalibrated pFL-SSL family. Each method is
// packaged as an fl.Method (Trainer + Aggregator + Personalizer).
package baselines

import (
	"context"
	"fmt"
	"math/rand"

	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// Config carries the shared settings for all baselines.
type Config struct {
	Arch       ssl.Arch
	NumClasses int
	Train      model.SupTrainConfig
	Head       model.HeadConfig

	// DittoLambda is Ditto's proximal strength (default 0.5).
	DittoLambda float64
	// APFLAlpha is APFL's personal/global mixture weight (default 0.5).
	APFLAlpha float64
	// EMAMomentum is FedEMA's client-side merge momentum scale (default
	// handled in fedema.go).
	EMAMomentum float64
	// ScriptEpochs is the local-only training budget: Script-Fair uses
	// Head.Epochs, Script-Convergent uses ScriptEpochs (default 80).
	ScriptEpochs int
	// UseUnlabeled lets SSL-based baselines (FedEMA) consume unlabeled
	// pools.
	UseUnlabeled bool
	// Augment is the SSL augmentation pipeline (style-aware when the
	// environment provides generator style directions).
	Augment data.Augmenter
	// WarmupRounds overrides Calibre's regularizer warm-up when positive
	// (the experiment harness scales it with the round budget so short
	// runs still exercise calibration).
	WarmupRounds int
}

// DefaultConfig returns baseline settings aligned with the paper.
func DefaultConfig(arch ssl.Arch, numClasses int) Config {
	return Config{
		Arch:         arch,
		NumClasses:   numClasses,
		Train:        model.DefaultSupTrainConfig(),
		Head:         model.DefaultHeadConfig(),
		DittoLambda:  0.5,
		APFLAlpha:    0.5,
		ScriptEpochs: 80,
		UseUnlabeled: true,
		Augment:      data.DefaultAugmenter(),
	}
}

// supBase manages per-client supervised models with a stable parameter
// layout. It underlies every supervised baseline.
type supBase struct {
	cfg    Config
	states fl.ClientStates[*model.SupModel]
}

func newSupBase(cfg Config) *supBase { return &supBase{cfg: cfg} }

// state returns the client's persistent model, creating it on first use
// (one rng draw either way, see fl.ClientStates). The boolean reports whether
// the client was already known (false = novel).
func (b *supBase) state(rng *rand.Rand, id int) (*model.SupModel, bool) {
	m, known, _ := b.states.Get(rng, id, func(initRNG *rand.Rand) (*model.SupModel, error) {
		return b.newModel(initRNG), nil
	})
	return m, known
}

func (b *supBase) newModel(rng *rand.Rand) *model.SupModel {
	return model.NewSupModel(rng, b.cfg.Arch, b.cfg.NumClasses)
}

// initGlobal builds the initial flattened global vector.
func (b *supBase) initGlobal(rng *rand.Rand) (param.Vector, error) {
	return nn.Flatten(b.newModel(rng)), nil
}

// loadMasked copies only the vector positions where mask is true; vec and
// mask must both cover the model exactly.
func loadMasked(m *model.SupModel, vec []float64, mask []bool) error {
	dst := nn.Values(m)
	if len(vec) != len(dst) || len(mask) != len(dst) {
		return fmt.Errorf("baselines: vector length %d and mask length %d, model needs %d", len(vec), len(mask), len(dst))
	}
	for i, shared := range mask {
		if shared {
			dst[i] = vec[i]
		}
	}
	return nil
}

// fineTuneHead trains only the model's head on the client's local training
// set using the personalization budget, then returns local test accuracy.
func (b *supBase) fineTuneHead(rng *rand.Rand, m *model.SupModel, client *partition.Client) (float64, error) {
	cfg := model.SupTrainConfig{
		Epochs:        b.cfg.Head.Epochs,
		BatchSize:     b.cfg.Head.BatchSize,
		LR:            b.cfg.Head.LR,
		Momentum:      b.cfg.Head.Momentum,
		ClipNorm:      b.cfg.Train.ClipNorm,
		FreezeEncoder: true,
	}
	if _, err := model.TrainSupervised(rng, m, client.Train, cfg); err != nil {
		return 0, fmt.Errorf("baselines: head fine-tune: %w", err)
	}
	return m.Accuracy(client.Test), nil
}

// probeAccuracy runs the linear-probe personalization on the model's frozen
// encoder (train a head from scratch), as FedBABU and the SSL methods do.
func (b *supBase) probeAccuracy(rng *rand.Rand, m *model.SupModel, client *partition.Client) (float64, error) {
	return model.LinearProbeAccuracy(rng, m.EncodeValue, client.Train, client.Test, b.cfg.NumClasses, b.cfg.Head)
}

// ensureCtx is a small helper turning ctx cancellation into an error at the
// head of Train/Personalize implementations.
func ensureCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	return nil
}
