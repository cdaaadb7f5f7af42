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

// scaffold implements SCAFFOLD (Karimireddy et al., ICML 2020): client
// drift under non-i.i.d. data is corrected with control variates. Each
// local gradient step adds (c - c_i); after K steps the client control
// variate is refreshed with the option-II rule
//
//	c_i⁺ = c_i - c + (x - y_i) / (K·η)
//
// and the server accumulates the average control delta.
type scaffold struct {
	*supBase
	agg      *fl.ScaffoldAggregator
	fineTune bool
}

var (
	_ fl.Trainer      = (*scaffold)(nil)
	_ fl.Personalizer = (*scaffold)(nil)
)

// NewScaffold builds SCAFFOLD with direct global evaluation.
func NewScaffold(cfg Config, numClients int) *fl.Method {
	return newScaffold(cfg, numClients, false)
}

// NewScaffoldFT builds SCAFFOLD-FT (head fine-tuned at personalization).
func NewScaffoldFT(cfg Config, numClients int) *fl.Method {
	return newScaffold(cfg, numClients, true)
}

// newScaffold builds the method. A client's row is its control variate
// c_i; the server control lives in the aggregator, which is fl.Stateful:
// SCAFFOLD is the one family the resume paths refuse.
func newScaffold(cfg Config, numClients int, fineTune bool) *fl.Method {
	agg := &fl.ScaffoldAggregator{ServerLR: 1, NumClients: numClients}
	s := &scaffold{supBase: newSupBase(cfg), agg: agg, fineTune: fineTune}
	s.clients = new(fl.ClientTable)
	name := "scaffold"
	if fineTune {
		name = "scaffold-ft"
	}
	return &fl.Method{
		Name:         name,
		Trainer:      s,
		Aggregator:   agg,
		Personalizer: s,
		InitGlobal:   s.initGlobal,
		Clients:      s.clients,
	}
}

func (s *scaffold) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	ci, _, err := s.clients.Row(rng, client.ID, func(*rand.Rand) (param.Vector, error) {
		return make(param.Vector, len(global)), nil
	})
	if err != nil {
		return nil, err
	}
	m, local, err := s.lendGlobal(global)
	if err != nil {
		return nil, err
	}
	serverC := s.agg.Control(len(global))
	// Correction (c - c_i) is added to every local gradient step. It lives in
	// the vector that leaves as the update's control delta afterwards.
	delta := param.Borrow(len(global))
	u := &fl.Update{ClientID: client.ID, Params: local, NumSamples: client.Train.Len(), ControlDelta: delta, Lent: true}
	if err := nn.VecSubInto(delta, serverC, ci); err != nil {
		s.spares.Give(m)
		u.GiveBack()
		return nil, fmt.Errorf("baselines: scaffold client %d control variates: %w", client.ID, err)
	}
	cfg := s.cfg.Train
	cfg.GradCorrection = delta
	u.TrainLoss, err = model.TrainSupervised(rng, m, client.Train, cfg)
	s.spares.Give(m)
	if err != nil {
		u.GiveBack()
		return nil, fmt.Errorf("baselines: scaffold client %d: %w", client.ID, err)
	}
	// Option II control refresh, c_i updated in the client's row.
	stepsPerEpoch := (client.Train.Len() + cfg.BatchSize - 1) / cfg.BatchSize
	k := cfg.Epochs * stepsPerEpoch
	if k < 1 {
		k = 1
	}
	scale := 1 / (float64(k) * cfg.LR)
	for i, c := range ci {
		newC := c - serverC[i] + (global[i]-local[i])*scale
		delta[i] = newC - c
		ci[i] = newC
	}
	return u, nil
}

func (s *scaffold) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	if err := ensureCtx(ctx); err != nil {
		return 0, err
	}
	m := s.newModel(rng)
	if err := nn.Unflatten(m, global); err != nil {
		return 0, err
	}
	if !s.fineTune {
		return m.Accuracy(client.Test), nil
	}
	return s.fineTuneHead(rng, m, client)
}
