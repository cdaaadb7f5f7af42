package main

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
)

func testUpdates() (param.Vector, []*fl.Update) {
	global := param.Vector{0, 0, 0, 0}
	return global, []*fl.Update{
		{ClientID: 0, Params: param.Vector{1, 2, 3, 4}, NumSamples: 10, Divergence: 0.5},
		{ClientID: 1, Params: param.Vector{4, 3, 2, 1}, NumSamples: 30, Divergence: 1.5},
		{ClientID: 2, Params: param.Vector{-1, 0, 1, 9}, NumSamples: 20, Divergence: 1.0},
	}
}

func spanNames(tr *tracer) map[string]int {
	out := map[string]int{}
	for _, s := range tr.spans {
		out[s.Name]++
	}
	return out
}

// A streaming aggregator stays streaming under the decorator — the
// runtimes pick the sink by type assertion — and computes the same bits.
func TestTracedStreamingAggregatorKeepsItsSink(t *testing.T) {
	global, updates := testUpdates()
	tr := newTracer()
	wrapped := traceAggregator(fl.WeightedAverage{}, tr, &roundMark{})
	if _, ok := wrapped.(fl.StreamingAggregator); !ok {
		t.Fatal("decorated WeightedAverage lost fl.StreamingAggregator: the traced run would use the buffering sink")
	}
	if _, ok := wrapped.(fl.RobustAggregator); ok {
		t.Fatal("decorated WeightedAverage gained fl.RobustAggregator")
	}
	if _, ok := wrapped.(fl.Stateful); ok {
		t.Fatal("decorated WeightedAverage gained fl.Stateful")
	}
	run := func(agg fl.Aggregator) param.Vector {
		sink := fl.NewRoundSink(agg, global)
		for _, u := range updates {
			if err := sink.Ingest(u); err != nil {
				t.Fatal(err)
			}
		}
		out, err := sink.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if _, ok := fl.NewRoundSink(wrapped, global).(*tracedSink); !ok {
		t.Fatal("NewRoundSink did not go through the decorated NewSink")
	}
	if bare, traced := run(fl.WeightedAverage{}), run(wrapped); !reflect.DeepEqual(bare, traced) {
		t.Fatalf("traced %v != bare %v", traced, bare)
	}
	if got := spanNames(tr); got[spanIngest] != len(updates) || got[spanAggregate] != 1 {
		t.Fatalf("spans = %v, want %d ingests and 1 aggregate", got, len(updates))
	}
}

// A batch-only aggregator must not grow a NewSink.
func TestTracedBatchAggregatorStaysBatch(t *testing.T) {
	global, updates := testUpdates()
	tr := newTracer()
	bare := &fl.DivergenceWeighted{}
	wrapped := traceAggregator(bare, tr, &roundMark{})
	if _, ok := wrapped.(fl.StreamingAggregator); ok {
		t.Fatal("decorated DivergenceWeighted gained fl.StreamingAggregator")
	}
	want, err := bare.Aggregate(global, updates)
	if err != nil {
		t.Fatal(err)
	}
	sink := fl.NewRoundSink(wrapped, global)
	for _, u := range updates {
		if err := sink.Ingest(u); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sink.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced %v != bare %v", got, want)
	}
	if n := spanNames(tr); n[spanAggregate] != 1 || n[spanIngest] != 0 {
		t.Fatalf("spans = %v, want exactly one aggregate", n)
	}
}

func TestTracedAggregatorForwardsRobustAndStateful(t *testing.T) {
	tr, mark := newTracer(), &roundMark{}
	robust := traceAggregator(fl.TrimmedMean{Frac: 0.2}, tr, mark)
	r, ok := robust.(fl.RobustAggregator)
	if !ok {
		t.Fatal("decorated TrimmedMean lost fl.RobustAggregator")
	}
	if got, want := r.Rejected(10), (fl.TrimmedMean{Frac: 0.2}).Rejected(10); got != want {
		t.Fatalf("Rejected(10) = %d, want %d", got, want)
	}
	_, bareStreams := fl.Aggregator(fl.TrimmedMean{}).(fl.StreamingAggregator)
	if _, ok := robust.(fl.StreamingAggregator); ok != bareStreams {
		t.Fatalf("decorated TrimmedMean streaming = %v, bare = %v", ok, bareStreams)
	}
	stateful := traceAggregator(&fl.ScaffoldAggregator{}, tr, mark)
	s, ok := stateful.(fl.Stateful)
	if !ok || !s.CarriesRoundState() {
		t.Fatal("decorated ScaffoldAggregator lost fl.Stateful")
	}
	m := &fl.Method{Name: "x", Trainer: plainTrainer{}, Aggregator: stateful, Personalizer: plainPersonalizer{}}
	if fl.Resumable(m) {
		t.Fatal("a method with a decorated stateful aggregator must stay non-resumable")
	}
}

type plainTrainer struct{}

func (plainTrainer) Train(_ context.Context, _ *rand.Rand, c *partition.Client, g param.Vector, _ int) (*fl.Update, error) {
	return &fl.Update{ClientID: c.ID, Params: g.Clone(), NumSamples: 1}, nil
}

type statefulTrainer struct{ plainTrainer }

func (statefulTrainer) CarriesRoundState() bool { return true }

type plainPersonalizer struct{}

func (plainPersonalizer) Personalize(context.Context, *rand.Rand, *partition.Client, param.Vector) (float64, error) {
	return 0.5, nil
}

type statefulPersonalizer struct{ plainPersonalizer }

func (statefulPersonalizer) CarriesRoundState() bool { return true }

func TestTracedTrainerAndPersonalizerForwardStateful(t *testing.T) {
	tr, mark := newTracer(), &roundMark{}
	if _, ok := traceTrainer(plainTrainer{}, tr, mark).(fl.Stateful); ok {
		t.Fatal("decorated plain trainer gained fl.Stateful")
	}
	if s, ok := traceTrainer(statefulTrainer{}, tr, mark).(fl.Stateful); !ok || !s.CarriesRoundState() {
		t.Fatal("decorated stateful trainer lost fl.Stateful")
	}
	if _, ok := tracePersonalizer(plainPersonalizer{}, tr).(fl.Stateful); ok {
		t.Fatal("decorated plain personalizer gained fl.Stateful")
	}
	if s, ok := tracePersonalizer(statefulPersonalizer{}, tr).(fl.Stateful); !ok || !s.CarriesRoundState() {
		t.Fatal("decorated stateful personalizer lost fl.Stateful")
	}
	client := &partition.Client{ID: 7}
	u, err := traceTrainer(plainTrainer{}, tr, mark).Train(context.Background(), nil, client, param.Vector{1, 2}, 3)
	if err != nil || u.ClientID != 7 {
		t.Fatalf("Train through the decorator: %v %v", u, err)
	}
	if mark.v.Load() != 3 {
		t.Fatalf("round mark = %d, want 3", mark.v.Load())
	}
	last := tr.spans[len(tr.spans)-1]
	if last.Name != spanTrain || last.Round != 3 || last.Client != 7 || last.End < last.Start {
		t.Fatalf("train span = %+v", last)
	}
}
