package ssl

import (
	"fmt"
	"math"
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

	key *Backbone
	// queue holds the normalized key projections, oldest first, in its
	// first fill rows (QueueSize×ProjDim); fill is that count as one float.
	// With the key encoder they are the method's local state (LocalState).
	queue, fill *nn.Param
	state       mocoState
	// pending is this step's keys, enqueued in AfterStep so the loss never
	// contrasts a query against its own batch twice.
	pending *tensor.Tensor
}

var _ Local = (*MoCoV2)(nil)

// mocoState is MoCo's local state as one module: the key encoder's
// parameters, then the queue and its fill count.
type mocoState []*nn.Param

func (s mocoState) Params() []*nn.Param { return s }

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
		m := &MoCoV2{Tau: tau, Momentum: momentum, QueueSize: queueSize, key: key,
			queue: nn.NewParam("moco.queue", queueSize, b.Arch.ProjDim), fill: nn.NewParam("moco.fill", 1)}
		m.state = append(append(mocoState(nil), key.Params()...), m.queue, m.fill)
		return m, nil
	}
}

// Name implements Method.
func (m *MoCoV2) Name() string { return "mocov2" }

// filled is the number of keys in the queue.
func (m *MoCoV2) filled() int { return int(m.fill.Value.Data()[0]) }

// checkLocal rejects bound local state whose fill count is not a whole
// number of keys between 0 and QueueSize (Trainable.BindLocal).
func (m *MoCoV2) checkLocal() error {
	if f := m.fill.Value.Data()[0]; !(f >= 0 && f <= float64(m.QueueSize)) || f != math.Trunc(f) {
		return fmt.Errorf("ssl: moco queue fill %v, want a whole count in [0, %d]", f, m.QueueSize)
	}
	return nil
}

// Loss computes the InfoNCE objective with queue negatives.
func (m *MoCoV2) Loss(ctx *StepContext) *nn.Node {
	q := nn.L2NormalizeRows(ctx.H1)
	// Keys from the momentum encoder on the second view (no gradient).
	kRaw := m.key.Project(m.key.Encode(ctx.View2)).Value
	k := tensor.L2NormalizeRows(kRaw, 1e-12)
	n := q.Value.Rows()

	// Positive logit: per-row dot(q_i, k_i).
	pos := nn.RowDotConst(q, k)

	// Stash keys for the post-step queue update (k is the step's own).
	m.pending = k

	targets := make([]int, n)
	var logits *nn.Node
	if fill := m.filled(); fill == 0 {
		// Cold queue: fall back to in-batch negatives (other keys).
		sim := nn.MatMulTransB(q, nn.Input(k))
		logits = sim
		for i := range targets {
			targets[i] = i
		}
	} else {
		d := m.queue.Value.Cols()
		negT := tensor.View(m.queue.Value.Data()[:fill*d], fill, d)
		neg := nn.MatMulTransB(q, nn.Input(negT))
		logits = nn.ConcatCols(pos, neg)
		// Positive is always column 0.
	}
	return nn.CrossEntropy(nn.Scale(logits, 1/m.Tau), targets)
}

// AfterStep EMA-updates the key encoder and pushes this step's keys onto
// the queue, dropping the oldest past QueueSize.
func (m *MoCoV2) AfterStep(online *Backbone) {
	if err := nn.EMAUpdate(m.key.Encoder, online.Encoder, m.Momentum); err != nil {
		panic(err)
	}
	if err := nn.EMAUpdate(m.key.Projector, online.Projector, m.Momentum); err != nil {
		panic(err)
	}
	queue, keys, d := m.queue.Value.Data(), m.pending.Data(), m.pending.Cols()
	fill, n := m.filled(), m.pending.Rows()
	if n >= m.QueueSize {
		copy(queue, keys[(n-m.QueueSize)*d:])
		fill = m.QueueSize
	} else {
		if drop := fill + n - m.QueueSize; drop > 0 {
			copy(queue, queue[drop*d:fill*d])
			fill -= drop
		}
		copy(queue[fill*d:], keys)
		fill += n
	}
	m.fill.Value.Data()[0] = float64(fill)
	m.pending = nil
}

// ExtraParams implements Method (the key encoder is not trained by
// gradient).
func (m *MoCoV2) ExtraParams() []*nn.Param { return nil }

// LocalState implements Local: the momentum key encoder and the key queue,
// which evolve across a client's local updates and are never federated.
func (m *MoCoV2) LocalState() nn.Module { return m.state }
