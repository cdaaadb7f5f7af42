package baselines

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

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

	mu       sync.Mutex
	controls map[int][]float64 // client control variates c_i
}

var (
	_ fl.Trainer      = (*scaffold)(nil)
	_ fl.Personalizer = (*scaffold)(nil)
	_ fl.Stateful     = (*scaffold)(nil)
)

// CarriesRoundState implements fl.Stateful: client control variates (and
// the aggregator's server control, see fl.ScaffoldAggregator) accumulate
// across rounds outside the global vector, so resume paths refuse
// SCAFFOLD.
func (s *scaffold) CarriesRoundState() bool { return true }

// NewScaffold builds SCAFFOLD with direct global evaluation.
func NewScaffold(cfg Config, numClients int) *fl.Method {
	return newScaffold(cfg, numClients, false)
}

// NewScaffoldFT builds SCAFFOLD-FT (head fine-tuned at personalization).
func NewScaffoldFT(cfg Config, numClients int) *fl.Method {
	return newScaffold(cfg, numClients, true)
}

func newScaffold(cfg Config, numClients int, fineTune bool) *fl.Method {
	agg := &fl.ScaffoldAggregator{ServerLR: 1, NumClients: numClients}
	s := &scaffold{
		supBase:  newSupBase(cfg),
		agg:      agg,
		fineTune: fineTune,
		controls: make(map[int][]float64),
	}
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
	}
}

func (s *scaffold) control(id, dim int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.controls[id]; ok {
		return c
	}
	c := make([]float64, dim)
	s.controls[id] = c
	return c
}

func (s *scaffold) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if err := ensureCtx(ctx); err != nil {
		return nil, err
	}
	m, _ := s.state(rng, client.ID)
	if err := nn.Unflatten(m, global); err != nil {
		return nil, err
	}
	ci := s.control(client.ID, len(global))
	serverC := s.agg.Control(len(global))
	// Correction (c - c_i) is added to every local gradient step. It lives in
	// the vector that leaves as the update's control delta afterwards.
	delta := make([]float64, len(global))
	if err := nn.VecSubInto(delta, serverC, ci); err != nil {
		return nil, fmt.Errorf("baselines: scaffold client %d control variates: %w", client.ID, err)
	}
	cfg := s.cfg.Train
	cfg.GradCorrection = delta
	loss, err := model.TrainSupervised(rng, m, client.Train, cfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: scaffold client %d: %w", client.ID, err)
	}
	local := nn.Values(m)
	// Option II control refresh, c_i updated in the storage it owns.
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
	return &fl.Update{
		ClientID:     client.ID,
		Params:       local,
		NumSamples:   client.Train.Len(),
		TrainLoss:    loss,
		ControlDelta: delta,
	}, nil
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
