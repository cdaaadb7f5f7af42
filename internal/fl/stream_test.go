package fl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calibre/internal/param"
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

// sinkValues are the parameters that make a sink's bits differ where a
// cleared sum and a written one could: both zeros (w·−0 is −0, and only
// +0 + −0 turns it into the +0 a cleared sum gave), NaNs with payloads of
// their own, infinities and denormals.
var sinkValues = []float64{
	0, math.Copysign(0, -1), math.Float64frombits(0x7FF8_0000_0000_0A01), math.Float64frombits(0xFFF8_0000_0000_0B02),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// withSinkValues replaces about one parameter in oneIn with a sinkValues
// entry, and makes one element −0 in every update, so that the aggregate
// there is +0·(1/total) = +0 only if the first update was added to +0.
func withSinkValues(rng *rand.Rand, updates []*Update, oneIn int) {
	for _, u := range updates {
		for j := range u.Params {
			if oneIn > 0 && rng.Intn(oneIn) == 0 {
				u.Params[j] = sinkValues[rng.Intn(len(sinkValues))]
			}
		}
		u.Params[len(u.Params)-1] = math.Copysign(0, -1)
	}
}

// sameAggregate is bitwise equality of two aggregates, except that any NaN
// equals any NaN: which of two NaN operands a sum keeps depends on the
// operand order a compiler picked for the scalar reference.
func sameAggregate(want, got []float64) bool {
	if len(want) != len(got) {
		return false
	}
	for i, w := range want {
		if math.Float64bits(w) != math.Float64bits(got[i]) && !(math.IsNaN(w) && math.IsNaN(got[i])) {
			return false
		}
	}
	return true
}

// checkSinkMatchesBatch holds FedAvg's batch Aggregate and its streaming
// sink, fed one update at a time, to serialWeightedAverage.
func checkSinkMatchesBatch(global []float64, updates []*Update) error {
	batch := serialWeightedAverage(len(global), updates)
	viaAggregate, err := (WeightedAverage{}).Aggregate(global, updates)
	if err != nil || !sameAggregate(batch, viaAggregate) {
		return fmt.Errorf("Aggregate differs from the serial sweep (err %v)", err)
	}
	sink := NewRoundSink(WeightedAverage{}, global)
	for _, u := range updates {
		if err := sink.Ingest(u); err != nil {
			return err
		}
	}
	streamed, err := sink.Finish()
	if err != nil || !sameAggregate(batch, streamed) {
		return fmt.Errorf("the streamed aggregate differs from the serial sweep (err %v)", err)
	}
	return nil
}

// TestWeightedAverageSinkMatchesBatchBitwise is the streaming-aggregation
// determinism gate: folding updates one at a time (in canonical order),
// each over shard ranges, must produce the exact float operations of a
// serial batch sweep, hence bit-identical output — and batch Aggregate is
// that sink. Half the draws carry −0, NaN payloads, infinities and
// denormals among the parameters.
func TestWeightedAverageSinkMatchesBatchBitwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		dim := 1 + rng.Intn(64)
		global := make([]float64, dim)
		updates := randomUpdates(rng, n, dim)
		if seed%2 == 0 {
			withSinkValues(rng, updates, 4)
		}
		return checkSinkMatchesBatch(global, updates) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWeightedAverageSinkMatchesBatch is TestWeightedAverageSinkMatchesBatchBitwise
// over what the fuzzer picks: 1–5 updates, lengths 1 … 3·param.MinShard+64
// (so one shard, and ranges cut at shard boundaries on a pool of two or
// more workers), and special values one in oneIn times (none for 0).
func FuzzWeightedAverageSinkMatchesBatch(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint8(0), int64(1))
	f.Add(uint8(1), uint16(7), uint8(2), int64(2))
	f.Add(uint8(4), uint16(param.MinShard), uint8(5), int64(3))
	f.Add(uint8(2), uint16(2*param.MinShard+1), uint8(3), int64(4))
	f.Add(uint8(3), uint16(3*param.MinShard+63), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, updates uint8, n uint16, oneIn uint8, seed int64) {
		k, dim := 1+int(updates)%5, 1+int(n)%(3*param.MinShard+64)
		rng := rand.New(rand.NewSource(seed))
		us := randomUpdates(rng, k, dim)
		withSinkValues(rng, us, int(oneIn))
		if err := checkSinkMatchesBatch(make([]float64, dim), us); err != nil {
			t.Fatalf("%d updates of %d params: %v", k, dim, err)
		}
	})
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
