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

// supBase manages the supervised models of every supervised baseline. No
// model is kept per client: each local update takes a spare model bound to
// the vector it trains in — a copy of the global borrowed for the update, or
// the client's row of the method's client table — and gives it back after,
// so the process keeps a model per trainer running at once. A method whose
// clients carry cross-round state keeps it in clients, nil otherwise.
type supBase struct {
	cfg     Config
	clients *fl.ClientTable
	spares  nn.Spares[*model.SupModel]
}

func newSupBase(cfg Config) *supBase { return &supBase{cfg: cfg} }

// bind returns a spare model bound to values for one local update; give
// it back (spares.Give) once the update is over.
func (b *supBase) bind(values param.Vector) (*model.SupModel, error) {
	return b.spares.Take(values, func() (*model.SupModel, error) {
		return b.newModel(rand.New(rand.NewSource(0))), nil // its values are never read: any seed does
	})
}

// lendGlobal returns a model holding global, and the vector its values
// are: borrowed from param's pool, to be the update's Lent payload. The
// global overwrites all of the model, so a model that was never the
// client's trains as the client's own would.
func (b *supBase) lendGlobal(global param.Vector) (*model.SupModel, param.Vector, error) {
	v := param.Borrow(len(global))
	copy(v, global)
	m, err := b.bind(v)
	if err != nil {
		param.GiveBack(v)
		return nil, nil, err
	}
	return m, v, nil
}

// trainLent is a stateless method's local update: supervised training under
// cfg of a model lent for it, from global. It takes the one draw from rng a
// client's row takes (fl.ClientTable.Row), so the update trains on the
// stream a method with rows would. The update's payload is the vector the
// model trained in, Lent.
func (b *supBase) trainLent(rng *rand.Rand, client *partition.Client, global param.Vector, cfg model.SupTrainConfig) (*fl.Update, error) {
	rng.Int63()
	m, v, err := b.lendGlobal(global)
	if err != nil {
		return nil, err
	}
	loss, err := model.TrainSupervised(rng, m, client.Train, cfg)
	b.spares.Give(m)
	if err != nil {
		param.GiveBack(v)
		return nil, err
	}
	return &fl.Update{ClientID: client.ID, Params: v, NumSamples: client.Train.Len(), TrainLoss: loss, Lent: true}, nil
}

// cloneOf builds a first-contact row holding global.
func cloneOf(global param.Vector) func(*rand.Rand) (param.Vector, error) {
	return func(*rand.Rand) (param.Vector, error) { return global.Clone(), nil }
}

func (b *supBase) newModel(rng *rand.Rand) *model.SupModel {
	return model.NewSupModel(rng, b.cfg.Arch, b.cfg.NumClasses)
}

// initGlobal builds the initial flattened global vector.
func (b *supBase) initGlobal(rng *rand.Rand) (param.Vector, error) {
	return nn.Flatten(b.newModel(rng)), nil
}

// loadMasked copies into dst only the vector positions where mask is true;
// vec and mask must both cover dst exactly.
func loadMasked(dst, vec []float64, mask []bool) error {
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
