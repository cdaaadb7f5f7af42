package fl

import (
	"fmt"

	"calibre/internal/param"
)

// UpdateSink accumulates one round's client updates incrementally. It is
// how the runtimes (the in-process Simulator and the flnet TCP server)
// aggregate: updates are folded in one at a time and, for streaming-capable
// aggregators, their payloads can be released immediately instead of being
// buffered until the round closes.
//
// Determinism contract: callers must Ingest in the round's canonical
// participant order (ascending client-slot order, exactly the order the
// batch Aggregate receives its updates slice in). Under that discipline a
// sink produces bit-identical results to the batch path for any arrival
// timing, because the identical float operations run in the identical
// order. Like the batch path, sinks never mutate the updates they ingest.
type UpdateSink interface {
	// Ingest folds one update into the running aggregate.
	Ingest(u *Update) error
	// Finish closes the round and returns the new global vector. A sink
	// that ingested nothing returns ErrNoUpdates, like the batch path.
	Finish() (param.Vector, error)
}

// StreamingAggregator is implemented by aggregators that can fold updates
// into a running aggregate without retaining their parameter vectors.
// Aggregators that need the whole round at once (for example
// DivergenceWeighted, whose softmax normalizes over all divergences) simply
// don't implement it and are adapted by NewRoundSink with a buffering sink.
type StreamingAggregator interface {
	Aggregator
	// NewSink starts one round's streaming aggregation over global.
	NewSink(global param.Vector) UpdateSink
}

// NewRoundSink starts one round of aggregation: a true streaming sink when
// agg implements StreamingAggregator, otherwise a buffering adapter that
// collects the updates and defers to agg.Aggregate on Finish. Either way
// the result is bit-identical to calling agg.Aggregate with the updates in
// ingestion order.
func NewRoundSink(agg Aggregator, global param.Vector) UpdateSink {
	if s, ok := agg.(StreamingAggregator); ok {
		return s.NewSink(global)
	}
	return &bufferSink{agg: agg, global: global}
}

// bufferSink adapts a batch-only Aggregator to the UpdateSink interface.
type bufferSink struct {
	agg     Aggregator
	global  param.Vector
	updates []*Update
}

func (b *bufferSink) Ingest(u *Update) error {
	b.updates = append(b.updates, u)
	return nil
}

func (b *bufferSink) Finish() (param.Vector, error) {
	return b.agg.Aggregate(b.global, b.updates)
}

// weightedAverageSink streams FedAvg aggregation: it keeps only the running
// weighted sum and total weight. Each Ingest folds its update over shard
// ranges (param.Shard): sharding is by element range, so every output
// element sees the float operations of a serial sweep over the updates, in
// ingestion order.
type weightedAverageSink struct {
	sum   param.Vector
	total float64
	n     int
}

var _ StreamingAggregator = WeightedAverage{}

// NewSink implements StreamingAggregator.
func (WeightedAverage) NewSink(global param.Vector) UpdateSink {
	return &weightedAverageSink{sum: make(param.Vector, len(global))}
}

func (s *weightedAverageSink) Ingest(u *Update) error {
	if len(u.Params) != len(s.sum) {
		return fmt.Errorf("%w: update from client %d has %d params, want %d", ErrUpdateSize, u.ClientID, len(u.Params), len(s.sum))
	}
	w := float64(u.NumSamples)
	if w <= 0 {
		w = 1
	}
	s.total += w
	sum, p := s.sum, u.Params
	param.Shard(len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i] += w * p[i]
		}
	})
	s.n++
	return nil
}

func (s *weightedAverageSink) Finish() (param.Vector, error) {
	if s.n == 0 {
		return nil, ErrNoUpdates
	}
	inv := 1 / s.total
	sum := s.sum
	param.Shard(len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i] *= inv
		}
	})
	return sum, nil
}
