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

// partialKind selects which half of the model is federated.
type partialKind int

const (
	// shareEncoder: the encoder is aggregated, heads stay local (FedPer,
	// FedRep, FedBABU).
	shareEncoder partialKind = iota + 1
	// shareHead: the head is aggregated, encoders stay local (LG-FedAvg).
	shareHead
)

// partial covers the representation-sharing family. The local update
// differs per method:
//
//   - FedPer (Arivazhagan et al., 2019): encoder + local head trained
//     jointly; only the encoder is aggregated.
//   - FedRep (Collins et al., ICML 2021): the head is optimized first on a
//     frozen encoder, then the encoder on a frozen head.
//   - FedBABU (Oh et al., ICLR 2022): the head is frozen at its shared
//     initialization during the whole training stage; only the encoder
//     learns. Personalization trains a head from scratch (linear probe).
//   - LG-FedAvg (Liang et al., 2019): local encoders learn client-specific
//     representations; the shared head is aggregated.
type partial struct {
	*supBase
	name  string
	kind  partialKind
	babu  bool // freeze head during training (FedBABU)
	split bool // FedRep's two-phase local update
}

var (
	_ fl.Trainer      = (*partial)(nil)
	_ fl.Personalizer = (*partial)(nil)
	_ fl.Stateful     = (*partial)(nil)
)

// CarriesRoundState implements fl.Stateful: the non-federated parameter
// half (personal heads, or personal encoders for LG-FedAvg) lives only in
// the in-memory client models, so a cold-started process would restart it
// from the shared initialization and diverge. Resume paths refuse the
// partial-personalization family.
func (p *partial) CarriesRoundState() bool { return true }

// NewFedPer builds FedPer.
func NewFedPer(cfg Config) *fl.Method { return newPartial(cfg, "fedper", shareEncoder, false, false) }

// NewFedRep builds FedRep.
func NewFedRep(cfg Config) *fl.Method { return newPartial(cfg, "fedrep", shareEncoder, false, true) }

// NewFedBABU builds FedBABU.
func NewFedBABU(cfg Config) *fl.Method { return newPartial(cfg, "fedbabu", shareEncoder, true, false) }

// NewLGFedAvg builds LG-FedAvg.
func NewLGFedAvg(cfg Config) *fl.Method { return newPartial(cfg, "lg-fedavg", shareHead, false, false) }

func newPartial(cfg Config, name string, kind partialKind, babu, split bool) *fl.Method {
	p := &partial{supBase: newSupBase(cfg), name: name, kind: kind, babu: babu, split: split}
	ref := p.newModel(rand.New(rand.NewSource(0)))
	var mask []bool
	if kind == shareEncoder {
		mask = ref.EncoderMask()
	} else {
		mask = ref.HeadMask()
	}
	return &fl.Method{
		Name:         name,
		Trainer:      p,
		Aggregator:   &fl.MaskedAverage{Mask: mask},
		Personalizer: p,
		InitGlobal:   p.initGlobal,
	}
}

func (p *partial) sharedMask(m *model.SupModel) []bool {
	if p.kind == shareEncoder {
		return m.EncoderMask()
	}
	return m.HeadMask()
}

func (p *partial) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, known := p.state(rng, client.ID)
	if !known {
		// First contact: adopt the full global vector so the private half
		// starts from the shared initialization (standard in these methods).
		if err := nn.Unflatten(m, global); err != nil {
			return nil, err
		}
	} else if err := loadMasked(m, global, p.sharedMask(m)); err != nil {
		return nil, err
	}
	var loss float64
	var err error
	switch {
	case p.babu:
		cfg := p.cfg.Train
		cfg.FreezeHead = true
		loss, err = model.TrainSupervised(rng, m, client.Train, cfg)
	case p.split:
		// FedRep: head epochs on frozen encoder, then encoder epochs on
		// frozen head.
		headCfg := p.cfg.Train
		headCfg.FreezeEncoder = true
		if _, err = model.TrainSupervised(rng, m, client.Train, headCfg); err != nil {
			break
		}
		encCfg := p.cfg.Train
		encCfg.FreezeHead = true
		loss, err = model.TrainSupervised(rng, m, client.Train, encCfg)
	default:
		loss, err = model.TrainSupervised(rng, m, client.Train, p.cfg.Train)
	}
	if err != nil {
		return nil, fmt.Errorf("baselines: %s client %d: %w", p.name, client.ID, err)
	}
	return &fl.Update{ClientID: client.ID, Params: nn.Values(m), NumSamples: client.Train.Len(), TrainLoss: loss}, nil
}

func (p *partial) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	if p.babu {
		// FedBABU: global encoder + freshly trained head (linear probe).
		m := p.newModel(rng)
		if err := nn.Unflatten(m, global); err != nil {
			return 0, err
		}
		return p.probeAccuracy(rng, m, client)
	}
	m, known := p.states.Peek(client.ID)
	if !known {
		// Novel client: start from the global vector entirely.
		m = p.newModel(rng)
		if err := nn.Unflatten(m, global); err != nil {
			return 0, err
		}
	} else if err := loadMasked(m, global, p.sharedMask(m)); err != nil {
		return 0, err
	}
	// Refresh the personal head on the local training set, then evaluate.
	return p.fineTuneHead(rng, m, client)
}
