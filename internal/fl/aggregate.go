package fl

import (
	"fmt"
	"math"
	"sync"

	"calibre/internal/param"
)

// The aggregators below all reduce over shard ranges dispatched on the
// shared tensor kernel pool (param.Shard). Sharding is by element range,
// never by update: within each range the updates are folded in canonical
// order, so every output element sees the identical float operations in
// the identical order as a serial sweep — sharded aggregation is
// bit-identical to the historical serial implementations for any pool
// size. None of them mutate global or the update payloads they are
// handed; the returned vector is borrowed from param's pool and handed
// over to the caller (Aggregator), so an accumulator is cleared before it
// is added into, or written by its first term (FedAvg's sink, stream.go).

// checkUpdateSizes validates every payload length up front (wrapping
// ErrUpdateSize) so the sharded loops below can index without bounds
// surprises even when a caller skips the runtimes' ingress CheckSize.
func checkUpdateSizes(global param.Vector, updates []*Update) error {
	for _, u := range updates {
		if len(u.Params) != len(global) {
			return fmt.Errorf("%w: update from client %d has %d params, want %d", ErrUpdateSize, u.ClientID, len(u.Params), len(global))
		}
	}
	return nil
}

// WeightedAverage is FedAvg aggregation: the new global vector is the
// sample-count-weighted mean of client vectors.
type WeightedAverage struct{}

var _ Aggregator = WeightedAverage{}

// Aggregate implements Aggregator: the batch form of the streaming sink
// the round core drives (stream.go), fed in slice order.
func (a WeightedAverage) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	sink := a.NewSink(global)
	for _, u := range updates {
		if err := sink.Ingest(u); err != nil {
			return nil, err
		}
	}
	return sink.Finish()
}

// DivergenceWeighted is Calibre's aggregation rule: each client's weight is
// softmax(-divergence/T) scaled by its sample count, so clients whose
// representations sit close to their prototypes (low local divergence rate)
// contribute more (paper §IV-B).
type DivergenceWeighted struct {
	// Temperature controls how sharply low-divergence clients are favored.
	// Zero means the default of 1.
	Temperature float64
}

var _ Aggregator = (*DivergenceWeighted)(nil)

// Aggregate implements Aggregator.
func (d *DivergenceWeighted) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	if err := checkUpdateSizes(global, updates); err != nil {
		return nil, err
	}
	temp := d.Temperature
	if temp <= 0 {
		temp = 1
	}
	// Normalize divergences to a comparable scale before the softmax so the
	// weighting is invariant to the representation's absolute magnitude.
	var mean float64
	for _, u := range updates {
		mean += u.Divergence
	}
	mean /= float64(len(updates))
	if mean <= 0 {
		mean = 1
	}
	weights := make([]float64, len(updates))
	var wsum float64
	for i, u := range updates {
		w := math.Exp(-u.Divergence / mean / temp)
		n := float64(u.NumSamples)
		if n <= 0 {
			n = 1
		}
		weights[i] = w * n
		wsum += weights[i]
	}
	for i := range weights {
		weights[i] /= wsum
	}
	out := param.Borrow(len(global))
	clear(out) // the sweep below adds into it
	param.Shard(len(global), func(lo, hi int) {
		for k, u := range updates {
			w, p := weights[k], u.Params
			for j := lo; j < hi; j++ {
				out[j] += w * p[j]
			}
		}
	})
	return out, nil
}

// MaskedAverage averages only the vector positions where mask is true,
// keeping the existing global values elsewhere. It expresses
// partial-exchange methods: LG-FedAvg (aggregate head only), FedPer/FedRep/
// FedBABU (aggregate encoder only).
type MaskedAverage struct {
	Mask []bool
}

var _ Aggregator = (*MaskedAverage)(nil)

// Aggregate implements Aggregator.
func (m *MaskedAverage) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(m.Mask) != len(global) {
		return nil, fmt.Errorf("fl: mask length %d, global %d", len(m.Mask), len(global))
	}
	avg, err := WeightedAverage{}.Aggregate(global, updates)
	if err != nil {
		return nil, err
	}
	out := param.Borrow(len(global))
	param.Shard(len(global), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if m.Mask[i] {
				out[i] = avg[i]
			} else {
				out[i] = global[i]
			}
		}
	})
	param.GiveBack(avg)
	return out, nil
}

// ScaffoldAggregator implements the server side of SCAFFOLD (Karimireddy et
// al., ICML 2020): the global model moves by the average client delta with
// a server learning rate, and the server control variate accumulates the
// average client control delta.
type ScaffoldAggregator struct {
	ServerLR   float64
	NumClients int // total client population C (control update is scaled by m/C)

	mu      sync.Mutex   // guards control's lazy allocation: a round's clients ask for it concurrently
	control param.Vector // server control variate c
}

var (
	_ Aggregator = (*ScaffoldAggregator)(nil)
	_ Stateful   = (*ScaffoldAggregator)(nil)
)

// CarriesRoundState implements Stateful: the server control variate
// accumulates across rounds outside the global vector, so a SimState
// checkpoint cannot restore it and resume is refused.
func (s *ScaffoldAggregator) CarriesRoundState() bool { return true }

// Control returns the server control variate (allocated on first use).
func (s *ScaffoldAggregator) Control(dim int) param.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.control == nil {
		s.control = make(param.Vector, dim)
	}
	return s.control
}

// Aggregate implements Aggregator.
func (s *ScaffoldAggregator) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	if err := checkUpdateSizes(global, updates); err != nil {
		return nil, err
	}
	for _, u := range updates {
		if u.ControlDelta != nil && len(u.ControlDelta) != len(global) {
			return nil, fmt.Errorf("%w: control delta from client %d has %d entries, want %d", ErrUpdateSize, u.ClientID, len(u.ControlDelta), len(global))
		}
	}
	lr := s.ServerLR
	if lr <= 0 {
		lr = 1
	}
	inv := 1 / float64(len(updates))
	ctl := s.Control(len(global))
	frac := inv
	if s.NumClients > 0 {
		frac = 1 / float64(s.NumClients)
	}
	out := param.Borrow(len(global))
	param.Shard(len(global), func(lo, hi int) {
		copy(out[lo:hi], global[lo:hi])
		for _, u := range updates {
			p := u.Params
			for i := lo; i < hi; i++ {
				out[i] += lr * inv * (p[i] - global[i])
			}
		}
		for _, u := range updates {
			if u.ControlDelta == nil {
				continue
			}
			cd := u.ControlDelta
			for i := lo; i < hi; i++ {
				ctl[i] += frac * cd[i]
			}
		}
	})
	return out, nil
}
