package main

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// The decorators below time the seams a method plugs into a runtime.
// They are capability-transparent: a wrapper has NewSink, Rejected or
// CarriesRoundState exactly when the value it wraps has it, because the
// runtimes choose their code path by those type assertions — a plain
// wrapper around WeightedAverage would silently swap the streaming sink
// for the buffering one, and the traced run would measure another
// program than the untraced one.

// roundMark is the round the federation is in, as last seen by the
// trainer decorator; the aggregator seam carries no round number of its
// own. Rounds are sequential in both runtimes, so the latest dispatched
// round is the one being aggregated.
type roundMark struct{ v atomic.Int64 }

type statefulCap struct{ s fl.Stateful }

func (c statefulCap) CarriesRoundState() bool { return c.s.CarriesRoundState() }

// ---- Trainer ----

type trainerCore struct {
	inner fl.Trainer
	t     *tracer
	mark  *roundMark
}

func (d *trainerCore) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	d.mark.v.Store(int64(round))
	start := time.Now()
	u, err := d.inner.Train(ctx, rng, client, global, round)
	d.t.add(spanTrain, 0, start, time.Now(), round, client.ID)
	return u, err
}

func traceTrainer(inner fl.Trainer, t *tracer, mark *roundMark) fl.Trainer {
	core := &trainerCore{inner: inner, t: t, mark: mark}
	if s, ok := inner.(fl.Stateful); ok {
		return struct {
			*trainerCore
			statefulCap
		}{core, statefulCap{s}}
	}
	return core
}

// ---- Personalizer ----

type personalizerCore struct {
	inner fl.Personalizer
	t     *tracer
}

func (d *personalizerCore) Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error) {
	start := time.Now()
	acc, err := d.inner.Personalize(ctx, rng, client, global)
	d.t.add(spanPersonalize, 0, start, time.Now(), -1, client.ID)
	return acc, err
}

func tracePersonalizer(inner fl.Personalizer, t *tracer) fl.Personalizer {
	core := &personalizerCore{inner: inner, t: t}
	if s, ok := inner.(fl.Stateful); ok {
		return struct {
			*personalizerCore
			statefulCap
		}{core, statefulCap{s}}
	}
	return core
}

// ---- Aggregator ----

type aggCore struct {
	inner fl.Aggregator
	t     *tracer
	mark  *roundMark
}

func (d *aggCore) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	start := time.Now()
	out, err := d.inner.Aggregate(global, updates)
	d.t.add(spanAggregate, 0, start, time.Now(), int(d.mark.v.Load()), -1)
	return out, err
}

type streamCap struct {
	core *aggCore
	s    fl.StreamingAggregator
}

func (c streamCap) NewSink(global param.Vector) fl.UpdateSink {
	return &tracedSink{inner: c.s.NewSink(global), core: c.core}
}

// tracedSink times the two halves of a streaming aggregation: every
// Ingest is its own span (they interleave with clients still training),
// and Finish is the span that counts as the round's aggregate call.
type tracedSink struct {
	inner fl.UpdateSink
	core  *aggCore
}

func (s *tracedSink) Ingest(u *fl.Update) error {
	start := time.Now()
	err := s.inner.Ingest(u)
	s.core.t.add(spanIngest, 0, start, time.Now(), int(s.core.mark.v.Load()), u.ClientID)
	return err
}

func (s *tracedSink) Finish() (param.Vector, error) {
	start := time.Now()
	out, err := s.inner.Finish()
	s.core.t.add(spanAggregate, 0, start, time.Now(), int(s.core.mark.v.Load()), -1)
	return out, err
}

type robustCap struct{ r fl.RobustAggregator }

func (c robustCap) Rejected(n int) int { return c.r.Rejected(n) }

func traceAggregator(inner fl.Aggregator, t *tracer, mark *roundMark) fl.Aggregator {
	core := &aggCore{inner: inner, t: t, mark: mark}
	s, isStream := inner.(fl.StreamingAggregator)
	r, isRobust := inner.(fl.RobustAggregator)
	st, isStateful := inner.(fl.Stateful)
	sc, rc, stc := streamCap{core, s}, robustCap{r}, statefulCap{st}
	switch {
	case isStream && isRobust && isStateful:
		return struct {
			*aggCore
			streamCap
			robustCap
			statefulCap
		}{core, sc, rc, stc}
	case isStream && isRobust:
		return struct {
			*aggCore
			streamCap
			robustCap
		}{core, sc, rc}
	case isStream && isStateful:
		return struct {
			*aggCore
			streamCap
			statefulCap
		}{core, sc, stc}
	case isStream:
		return struct {
			*aggCore
			streamCap
		}{core, sc}
	case isRobust && isStateful:
		return struct {
			*aggCore
			robustCap
			statefulCap
		}{core, rc, stc}
	case isRobust:
		return struct {
			*aggCore
			robustCap
		}{core, rc}
	case isStateful:
		return struct {
			*aggCore
			statefulCap
		}{core, stc}
	}
	return core
}

// traceCheckpoint times the OnCheckpoint hook a runtime calls with its
// round state; the span belongs to the round that was just completed.
func traceCheckpoint(inner func(*fl.SimState) error, t *tracer) func(*fl.SimState) error {
	return func(st *fl.SimState) error {
		start := time.Now()
		err := inner(st)
		t.add(spanCheckpoint, 0, start, time.Now(), st.Round-1, -1)
		return err
	}
}

// traceMethod returns a copy of m with every seam decorated.
func traceMethod(m *fl.Method, t *tracer) *fl.Method {
	mark := &roundMark{}
	out := *m
	out.Trainer = traceTrainer(m.Trainer, t, mark)
	out.Aggregator = traceAggregator(m.Aggregator, t, mark)
	out.Personalizer = tracePersonalizer(m.Personalizer, t)
	return &out
}
