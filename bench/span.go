package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// decorators around the seams the runtimes expose. Start and End are
// nanoseconds since the tracer's origin; Parent is the ID of the span
// that caused this one (0 for a root); Round and Client are -1 when the
// span is not scoped to one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Round  int    `json:"round"`
	Client int    `json:"client"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names: one per seam.
const (
	spanFederation  = "federation"
	spanSetup       = "setup"
	spanRound       = "fl.round"
	spanTrain       = "fl.train"
	spanAggregate   = "fl.aggregate"
	spanIngest      = "fl.aggregate.ingest"
	spanCheckpoint  = "store.checkpoint"
	spanPersonalize = "fl.personalize"
)

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil tracer records nothing, so the decorators are
// simply not installed on untraced runs and the runtimes' callbacks can
// call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 4096)}
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, round, client int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Round: round, Client: client,
	})
	return id
}

// interval is a half-open [lo, hi) range of nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length the intervals cover, counting overlaps
// once; intervals are clipped to [lo, hi) first.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	end := lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover: concurrent children count once, and a child reaching outside
// the parent only counts for the part inside.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return parent.dur() - unionLen(ivs, parent.Start, parent.End)
}

// linkSpans closes a traced rep's span tree: it adds the federation, the
// set-up and one span per round (from the end of the calibration that
// follows the previous round to this round's OnRound callback), parents
// every recorded call under the round it ran in, and scales all spans
// by the rep's host speed, so they are in the same calibrated time as
// the rep's other numbers.
func linkSpans(tr *tracer, t0 time.Time, clock *stageClock, hostSpeed float64) []span {
	fed := tr.add(spanFederation, 0, t0, time.Now(), -1, -1)
	tr.add(spanSetup, fed, t0, clock.setupEnd, -1, -1)
	roundID := make([]int, len(clock.ends))
	for i, e := range clock.ends {
		roundID[i] = tr.add(spanRound, fed, clock.starts[i], e, i, -1)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.spans {
		s := &tr.spans[i]
		switch {
		case s.Parent != 0 || s.ID == fed:
		case s.Round >= 0 && s.Round < len(roundID):
			s.Parent = roundID[s.Round]
		default:
			s.Parent = fed
		}
		s.Start = int64(float64(s.Start) * hostSpeed)
		s.End = int64(float64(s.End) * hostSpeed)
	}
	return tr.spans
}
