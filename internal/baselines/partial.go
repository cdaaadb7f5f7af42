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
	mask  []bool // the federated half, the aggregator's mask
	babu  bool   // freeze head during training (FedBABU)
	split bool   // FedRep's two-phase local update
}

var (
	_ fl.Trainer      = (*partial)(nil)
	_ fl.Personalizer = (*partial)(nil)
)

// NewFedPer builds FedPer.
func NewFedPer(cfg Config) *fl.Method { return newPartial(cfg, "fedper", shareEncoder, false, false) }

// NewFedRep builds FedRep.
func NewFedRep(cfg Config) *fl.Method { return newPartial(cfg, "fedrep", shareEncoder, false, true) }

// NewFedBABU builds FedBABU.
func NewFedBABU(cfg Config) *fl.Method { return newPartial(cfg, "fedbabu", shareEncoder, true, false) }

// NewLGFedAvg builds LG-FedAvg.
func NewLGFedAvg(cfg Config) *fl.Method { return newPartial(cfg, "lg-fedavg", shareHead, false, false) }

// newPartial builds a method of the family. A client's row is its whole
// model: the federated half is the global's, loaded at every update, and
// the private half (personal heads, or personal encoders for LG-FedAvg)
// the one its last update ended on.
func newPartial(cfg Config, name string, kind partialKind, babu, split bool) *fl.Method {
	p := &partial{supBase: newSupBase(cfg), name: name, babu: babu, split: split}
	p.clients = new(fl.ClientTable)
	ref := p.newModel(rand.New(rand.NewSource(0)))
	if kind == shareEncoder {
		p.mask = ref.EncoderMask()
	} else {
		p.mask = ref.HeadMask()
	}
	return &fl.Method{
		Name:         name,
		Trainer:      p,
		Aggregator:   &fl.MaskedAverage{Mask: p.mask},
		Personalizer: p,
		InitGlobal:   p.initGlobal,
		Clients:      p.clients,
	}
}

func (p *partial) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	// First contact adopts the full global vector, so the private half
	// starts from the shared initialization (standard in these methods).
	row, known, err := p.clients.Row(rng, client.ID, cloneOf(global))
	if err != nil {
		return nil, err
	}
	if known {
		if err := loadMasked(row, global, p.mask); err != nil {
			return nil, err
		}
	}
	m, err := p.bind(row)
	if err != nil {
		return nil, err
	}
	var loss float64
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
	p.spares.Give(m)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s client %d: %w", p.name, client.ID, err)
	}
	return &fl.Update{ClientID: client.ID, Params: row, NumSamples: client.Train.Len(), TrainLoss: loss}, nil
}

func (p *partial) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	row, known := p.clients.Peek(client.ID)
	if p.babu || !known {
		// FedBABU: global encoder + freshly trained head (linear probe).
		// A novel client starts from the global vector entirely.
		m := p.newModel(rng)
		if err := nn.Unflatten(m, global); err != nil {
			return 0, err
		}
		if p.babu {
			return p.probeAccuracy(rng, m, client)
		}
		return p.fineTuneHead(rng, m, client)
	}
	// Refresh the personal half on the local training set, in a copy of the
	// row with the global's shared half, then evaluate.
	v := param.Borrow(len(row))
	defer param.GiveBack(v)
	copy(v, row)
	if err := loadMasked(v, global, p.mask); err != nil {
		return 0, err
	}
	m, err := p.bind(v)
	if err != nil {
		return 0, err
	}
	defer p.spares.Give(m)
	return p.fineTuneHead(rng, m, client)
}
