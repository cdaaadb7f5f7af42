package fl

import (
	"context"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/param"
	"calibre/internal/partition"
)

type noopTrainer struct{ dim int }

func (n noopTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	return &Update{ClientID: c.ID, Params: append([]float64(nil), global...), NumSamples: c.Train.Len()}, nil
}

func benchClients(b *testing.B, n int) []*partition.Client {
	b.Helper()
	g, err := data.NewGenerator(data.CIFAR10Spec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ds := g.GenerateLabeled(rng, 20)
	parts, err := partition.IID(rng, ds, n, 20)
	if err != nil {
		b.Fatal(err)
	}
	return partition.BuildClients(rng, ds, parts, nil)
}

// BenchmarkSimulatorOverhead measures the round-loop machinery itself
// (sampling, dispatch, aggregation) with a no-op trainer and a
// 10k-parameter model.
func BenchmarkSimulatorOverhead(b *testing.B) {
	clients := benchClients(b, 32)
	m := &Method{
		Name:         "noop",
		Trainer:      noopTrainer{dim: 10000},
		Aggregator:   WeightedAverage{},
		Personalizer: fakeBenchPersonalizer{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			return make([]float64, 10000), nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(SimConfig{Rounds: 10, ClientsPerRound: 10, Seed: int64(i)}, m, clients)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

type fakeBenchPersonalizer struct{}

func (fakeBenchPersonalizer) Personalize(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector) (float64, error) {
	return 0.5, nil
}

// BenchmarkWeightedAverage measures aggregation of 10 updates × 100k params.
func BenchmarkWeightedAverage(b *testing.B) {
	const dim = 100_000
	global := make([]float64, dim)
	updates := make([]*Update, 10)
	rng := rand.New(rand.NewSource(3))
	for i := range updates {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		updates[i] = &Update{ClientID: i, Params: p, NumSamples: 100}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (WeightedAverage{}).Aggregate(global, updates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDivergenceWeighted measures Calibre's aggregation rule at the
// same size.
func BenchmarkDivergenceWeighted(b *testing.B) {
	const dim = 100_000
	global := make([]float64, dim)
	updates := make([]*Update, 10)
	rng := rand.New(rand.NewSource(4))
	for i := range updates {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		updates[i] = &Update{ClientID: i, Params: p, NumSamples: 100, Divergence: rng.Float64()}
	}
	agg := &DivergenceWeighted{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Aggregate(global, updates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightedAverageSink times one round of FedAvg's streaming
// aggregation as net-wide-ops runs it, two updates of 282,378 parameters:
// NewSink, the first update written into the borrowed sum and the second
// added, Finish's scaling, and the aggregate given back to param's pool.
// SetBytes counts the updates' payload, so MB/s reads as the rate updates
// are folded in.
func BenchmarkWeightedAverageSink(b *testing.B) {
	const dim, clients = 282378, 2
	rng := rand.New(rand.NewSource(3))
	global := make(param.Vector, dim)
	updates := randomUpdates(rng, clients, dim)
	b.SetBytes(8 * dim * clients)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := WeightedAverage{}.NewSink(global)
		for _, u := range updates {
			if err := sink.Ingest(u); err != nil {
				b.Fatal(err)
			}
		}
		agg, err := sink.Finish()
		if err != nil {
			b.Fatal(err)
		}
		param.GiveBack(agg)
	}
}
