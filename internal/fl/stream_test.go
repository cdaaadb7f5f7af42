package fl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomUpdates(rng *rand.Rand, n, dim int) []*Update {
	updates := make([]*Update, n)
	for i := range updates {
		params := make([]float64, dim)
		for j := range params {
			params[j] = rng.NormFloat64()
		}
		updates[i] = &Update{
			ClientID:   i,
			Params:     params,
			NumSamples: rng.Intn(200),
			TrainLoss:  rng.Float64(),
		}
	}
	return updates
}

// serialWeightedAverage is FedAvg as one serial sweep: the reference the
// sharded streaming sink must reproduce bit for bit.
func serialWeightedAverage(dim int, updates []*Update) []float64 {
	out := make([]float64, dim)
	var total float64
	for _, u := range updates {
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1
		}
		total += w
		for i, p := range u.Params {
			out[i] += w * p
		}
	}
	inv := 1 / total
	for i := range out {
		out[i] *= inv
	}
	return out
}

// TestWeightedAverageSinkMatchesBatchBitwise is the streaming-aggregation
// determinism gate: folding updates one at a time (in canonical order),
// each over shard ranges, must produce the exact float operations of a
// serial batch sweep, hence bit-identical output — and batch Aggregate is
// that sink.
func TestWeightedAverageSinkMatchesBatchBitwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dim := 1 + rng.Intn(64)
		global := make([]float64, dim)
		updates := randomUpdates(rng, n, dim)

		batch := serialWeightedAverage(dim, updates)
		if viaAggregate, err := (WeightedAverage{}).Aggregate(global, updates); err != nil || !reflect.DeepEqual([]float64(viaAggregate), batch) {
			return false
		}
		sink := NewRoundSink(WeightedAverage{}, global)
		for _, u := range updates {
			if err := sink.Ingest(u); err != nil {
				return false
			}
		}
		streamed, err := sink.Finish()
		if err != nil || len(streamed) != len(batch) {
			return false
		}
		for i := range batch {
			if math.Float64bits(streamed[i]) != math.Float64bits(batch[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedAverageIsStreaming pins that FedAvg aggregation advertises
// streaming capability (the flnet server relies on it to avoid buffering
// whole rounds of parameter vectors).
func TestWeightedAverageIsStreaming(t *testing.T) {
	var agg Aggregator = WeightedAverage{}
	if _, ok := agg.(StreamingAggregator); !ok {
		t.Fatal("WeightedAverage should implement StreamingAggregator")
	}
}

// TestBufferSinkAdaptsBatchAggregators checks the fallback path: an
// aggregator without streaming support goes through the buffering adapter
// and produces its exact batch result.
func TestBufferSinkAdaptsBatchAggregators(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	global := make([]float64, 8)
	updates := randomUpdates(rng, 5, 8)
	for i, u := range updates {
		u.Divergence = 0.1 * float64(i+1)
	}
	agg := &DivergenceWeighted{Temperature: 0.7}
	if _, ok := interface{}(agg).(StreamingAggregator); ok {
		t.Fatal("DivergenceWeighted should not stream (needs all divergences)")
	}
	batch, err := agg.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	sink := NewRoundSink(agg, global)
	for _, u := range updates {
		if err := sink.Ingest(u); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	streamed, err := sink.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for i := range batch {
		if math.Float64bits(streamed[i]) != math.Float64bits(batch[i]) {
			t.Fatalf("buffered sink diverged at %d: %v vs %v", i, streamed[i], batch[i])
		}
	}
}

// TestSinkEmptyRound pins ErrNoUpdates parity between streaming and batch
// sinks for an empty round.
func TestSinkEmptyRound(t *testing.T) {
	for _, agg := range []Aggregator{WeightedAverage{}, &DivergenceWeighted{}} {
		sink := NewRoundSink(agg, make([]float64, 3))
		if _, err := sink.Finish(); err != ErrNoUpdates {
			t.Fatalf("%T empty round: err = %v, want ErrNoUpdates", agg, err)
		}
	}
}

// TestSinkRejectsShapeMismatch mirrors the batch path's dimension check.
func TestSinkRejectsShapeMismatch(t *testing.T) {
	sink := NewRoundSink(WeightedAverage{}, make([]float64, 3))
	if err := sink.Ingest(&Update{Params: make([]float64, 2), NumSamples: 1}); err == nil {
		t.Fatal("short update accepted")
	}
}

func TestStragglerPolicyParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want StragglerPolicy
	}{{"requeue", StragglerRequeue}, {"", StragglerRequeue}, {"drop", StragglerDrop}} {
		got, err := ParseStragglerPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseStragglerPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseStragglerPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if StragglerRequeue.String() != "requeue" || StragglerDrop.String() != "drop" {
		t.Fatal("policy String mismatch")
	}
}

func TestDiffSorted(t *testing.T) {
	got := diffSorted([]int{1, 2, 3, 5, 8}, []int{2, 5})
	want := []int{1, 3, 8}
	if len(got) != len(want) {
		t.Fatalf("diffSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diffSorted = %v, want %v", got, want)
		}
	}
}
