package fl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/tensor"
)

func planeVector(rng *rand.Rand, n int) param.Vector {
	v := make(param.Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func planeUpdates(rng *rand.Rand, n, count int, withControl bool) []*Update {
	updates := make([]*Update, count)
	for k := range updates {
		u := &Update{
			ClientID:   k,
			Params:     planeVector(rng, n),
			NumSamples: 10 + k,
			TrainLoss:  rng.Float64(),
			Divergence: rng.Float64(),
		}
		if withControl {
			u.ControlDelta = planeVector(rng, n)
		}
		updates[k] = u
	}
	return updates
}

func cloneBits(v param.Vector) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

func assertBitsUnchanged(t *testing.T, name string, v param.Vector, want []uint64) {
	t.Helper()
	if len(v) != len(want) {
		t.Fatalf("%s: length changed from %d to %d", name, len(want), len(v))
	}
	for i := range v {
		if math.Float64bits(v[i]) != want[i] {
			t.Fatalf("%s: element %d mutated", name, i)
		}
	}
}

// aggregatorsUnderTest builds one of each aggregator over dimension n.
func aggregatorsUnderTest(n int) map[string]Aggregator {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i%3 != 0
	}
	return map[string]Aggregator{
		"weighted-average":    WeightedAverage{},
		"divergence-weighted": &DivergenceWeighted{Temperature: 0.5},
		"masked-average":      &MaskedAverage{Mask: mask},
		"scaffold":            &ScaffoldAggregator{ServerLR: 0.9, NumClients: 7},
	}
}

// TestAggregatorsNeverMutateInputs pins the read-only contract: updates
// are shared with RoundStats and checkpoint paths, so an aggregator (or
// sink) that wrote through a payload would corrupt resume bit-identity
// silently. Every aggregator must leave global and all update payloads
// bit-identical, and must return a vector of its own, never global.
func TestAggregatorsNeverMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4*param.MinShard + 13 // large enough that sharding really engages
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 4, true)

	globalBits := cloneBits(global)
	paramBits := make([][]uint64, len(updates))
	controlBits := make([][]uint64, len(updates))
	for k, u := range updates {
		paramBits[k] = cloneBits(u.Params)
		controlBits[k] = cloneBits(u.ControlDelta)
	}

	for name, agg := range aggregatorsUnderTest(n) {
		out, err := agg.Aggregate(global, updates)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if &out[0] == &global[0] {
			t.Fatalf("%s: returned vector aliases global", name)
		}
		sinkOut, err := func() (param.Vector, error) {
			sink := NewRoundSink(agg, global)
			for _, u := range updates {
				if err := sink.Ingest(u); err != nil {
					return nil, err
				}
			}
			return sink.Finish()
		}()
		if err != nil {
			t.Fatalf("%s sink: %v", name, err)
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(sinkOut[i]) {
				t.Fatalf("%s: sink result differs from batch at %d", name, i)
			}
		}
		assertBitsUnchanged(t, name+" global", global, globalBits)
		for k, u := range updates {
			assertBitsUnchanged(t, name+" params", u.Params, paramBits[k])
			assertBitsUnchanged(t, name+" control", u.ControlDelta, controlBits[k])
		}
	}
}

// TestAggregatorsShardedBitIdentical pins that shard-parallel aggregation
// is bit-identical to the serial sweep for every aggregator, across pool
// sizes and at dimensions straddling the shard threshold.
func TestAggregatorsShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{37, param.MinShard, 3*param.MinShard + 11} {
		global := planeVector(rng, n)
		updates := planeUpdates(rng, n, 5, true)
		serial := make(map[string]param.Vector)
		tensor.SetWorkers(1)
		for name, agg := range aggregatorsUnderTest(n) {
			out, err := agg.Aggregate(global, updates)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			serial[name] = out
		}
		for _, workers := range []int{2, 5} {
			tensor.SetWorkers(workers)
			for name, agg := range aggregatorsUnderTest(n) {
				out, err := agg.Aggregate(global, updates)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(serial[name][i]) {
						t.Fatalf("%s n=%d workers=%d: element %d differs from serial", name, n, workers, i)
					}
				}
			}
		}
	}
	tensor.SetWorkers(0)
}

// TestUpdateResolve walks the ingress contract (Update.CheckSize): a
// right-sized payload passes, with or without a control delta, and every
// malformed one is rejected with ErrUpdateSize.
func TestUpdateResolve(t *testing.T) {
	global := planeVector(rand.New(rand.NewSource(2)), 100)
	v := global.Clone()
	for name, ok := range map[string]*Update{
		"params":         {ClientID: 3, Params: v},
		"params+control": {ClientID: 3, Params: v, ControlDelta: global.Clone()},
	} {
		if err := ok.CheckSize(global); err != nil {
			t.Errorf("%s: CheckSize returned %v", name, err)
		}
	}
	for name, bad := range map[string]*Update{
		"no-payload":   {ClientID: 1},
		"control-only": {ClientID: 1, ControlDelta: global.Clone()},
		"short":        {ClientID: 1, Params: make(param.Vector, 99)},
		"long":         {ClientID: 1, Params: make(param.Vector, 101)},
		"bad-control":  {ClientID: 1, Params: v, ControlDelta: make(param.Vector, 5)},
	} {
		if err := bad.CheckSize(global); !errors.Is(err, ErrUpdateSize) {
			t.Errorf("%s: CheckSize returned %v, want ErrUpdateSize", name, err)
		}
	}
}

// badSizeTrainer returns an update one element too long.
type badSizeTrainer struct{}

func (badSizeTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	return &Update{ClientID: c.ID, Params: make(param.Vector, len(global)+1), NumSamples: 1}, nil
}

type planePersonalizer struct{}

func (planePersonalizer) Personalize(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector) (float64, error) {
	return 1, nil
}

func planeClients(n int) []*partition.Client {
	out := make([]*partition.Client, n)
	for i := range out {
		out[i] = &partition.Client{ID: i}
	}
	return out
}

// TestSimulatorRejectsWrongSizeUpdate pins the simulator's ingress
// validation: a trainer emitting a wrong-length vector fails the round
// with a typed ErrUpdateSize instead of an index panic mid-aggregation.
func TestSimulatorRejectsWrongSizeUpdate(t *testing.T) {
	method := &Method{
		Name:         "bad-size",
		Trainer:      badSizeTrainer{},
		Aggregator:   WeightedAverage{},
		Personalizer: planePersonalizer{},
		InitGlobal:   func(rng *rand.Rand) (param.Vector, error) { return make(param.Vector, 8), nil },
	}
	sim, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 2, Seed: 1}, method, planeClients(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); !errors.Is(err, ErrUpdateSize) {
		t.Fatalf("Run returned %v, want ErrUpdateSize", err)
	}
}

// TestAggregatorsClearWhatTheyBorrow: every aggregator builds its result in
// vectors borrowed from param's pool, which hold whatever their last
// borrower left. With NaN-filled vectors the pool's best fits, every
// aggregate — batch and through its round sink — comes out bit-identical
// to the one built before, and holds no NaN.
func TestAggregatorsClearWhatTheyBorrow(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 3*param.MinShard + 11
	global := planeVector(rng, n)
	updates := planeUpdates(rng, n, 5, true)
	aggs := aggregatorsUnderTest(n)
	for name, agg := range robustAggregatorsUnderTest() {
		aggs[name] = agg
	}
	dirty := func() {
		for range 2 { // MaskedAverage borrows two
			v := make(param.Vector, n)
			for i := range v {
				v[i] = math.NaN()
			}
			param.GiveBack(v)
		}
	}
	viaSink := func(agg Aggregator) (param.Vector, error) {
		sink := NewRoundSink(agg, global)
		for _, u := range updates {
			if err := sink.Ingest(u); err != nil {
				return nil, err
			}
		}
		return sink.Finish()
	}
	for name, agg := range aggs {
		want, err := agg.Aggregate(global, updates)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantBits := cloneBits(want)
		for _, path := range []struct {
			name string
			run  func() (param.Vector, error)
		}{
			{"batch", func() (param.Vector, error) { return agg.Aggregate(global, updates) }},
			{"sink", func() (param.Vector, error) { return viaSink(agg) }},
		} {
			dirty()
			got, err := path.run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, path.name, err)
			}
			if slices.ContainsFunc(got, math.IsNaN) {
				t.Fatalf("%s %s: the aggregate kept what a borrowed vector held", name, path.name)
			}
			assertBitsUnchanged(t, name+" "+path.name+" aggregate", got, wantBits)
			param.GiveBack(got)
		}
		param.GiveBack(want)
	}
}
