package ssl

import (
	"fmt"
	"math/rand"

	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// MoCoV2 implements "Momentum Contrast" v2 (He et al. / Chen et al.):
// queries from the online backbone are contrasted against the positive key
// from a momentum (EMA) key encoder and against a queue of past keys acting
// as negatives.
type MoCoV2 struct {
	Tau       float64
	Momentum  float64
	QueueSize int

	key   *Backbone
	queue [][]float64 // normalized key projections, FIFO
	// pendingKeys are this step's keys, enqueued in AfterStep so the loss
	// never contrasts a query against its own batch twice.
	pendingKeys [][]float64
}

var _ Method = (*MoCoV2)(nil)

// NewMoCoV2 returns a factory producing MoCo v2.
func NewMoCoV2(tau, momentum float64, queueSize int) Factory {
	return func(rng *rand.Rand, b *Backbone) (Method, error) {
		if queueSize < 1 {
			return nil, fmt.Errorf("ssl: moco queue size must be ≥1, got %d", queueSize)
		}
		key, err := b.Clone(rng)
		if err != nil {
			return nil, fmt.Errorf("ssl: moco key encoder init: %w", err)
		}
		return &MoCoV2{Tau: tau, Momentum: momentum, QueueSize: queueSize, key: key}, nil
	}
}

// Name implements Method.
func (m *MoCoV2) Name() string { return "mocov2" }

// Loss computes the InfoNCE objective with queue negatives.
func (m *MoCoV2) Loss(ctx *StepContext) *nn.Node {
	q := nn.L2NormalizeRows(ctx.H1)
	// Keys from the momentum encoder on the second view (no gradient).
	kRaw := m.key.Project(m.key.Encode(ctx.View2)).Value
	k := tensor.L2NormalizeRows(kRaw, 1e-12)
	n := q.Value.Rows()

	// Positive logit: per-row dot(q_i, k_i).
	pos := nn.RowDotConst(q, k)

	// Stash keys for the post-step queue update.
	m.pendingKeys = m.pendingKeys[:0]
	for i := 0; i < n; i++ {
		m.pendingKeys = append(m.pendingKeys, append([]float64(nil), k.Row(i)...))
	}

	targets := make([]int, n)
	var logits *nn.Node
	if len(m.queue) == 0 {
		// Cold queue: fall back to in-batch negatives (other keys).
		sim := nn.MatMulTransB(q, nn.Input(k))
		logits = sim
		for i := range targets {
			targets[i] = i
		}
	} else {
		negT, err := tensor.Stack(m.queue)
		if err != nil {
			panic(err) // queue rows share projDim by construction
		}
		neg := nn.MatMulTransB(q, nn.Input(negT))
		logits = nn.ConcatCols(pos, neg)
		// Positive is always column 0.
	}
	return nn.CrossEntropy(nn.Scale(logits, 1/m.Tau), targets)
}

// AfterStep EMA-updates the key encoder and pushes this step's keys.
func (m *MoCoV2) AfterStep(online *Backbone) {
	if err := nn.EMAUpdate(m.key.Encoder, online.Encoder, m.Momentum); err != nil {
		panic(err)
	}
	if err := nn.EMAUpdate(m.key.Projector, online.Projector, m.Momentum); err != nil {
		panic(err)
	}
	m.queue = append(m.queue, m.pendingKeys...)
	m.pendingKeys = m.pendingKeys[:0]
	if excess := len(m.queue) - m.QueueSize; excess > 0 {
		m.queue = append([][]float64(nil), m.queue[excess:]...)
	}
}

// ExtraParams implements Method (the key encoder is not trained by
// gradient).
func (m *MoCoV2) ExtraParams() []*nn.Param { return nil }

// CarriesLocalState implements Method: the momentum key encoder and the
// FIFO key queue evolve across rounds and are never federated or
// checkpointed, so MoCo-based methods cannot be bit-identically resumed.
func (m *MoCoV2) CarriesLocalState() bool { return true }
