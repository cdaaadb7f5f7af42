package fl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"calibre/internal/data"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// fakeTrainer adds +1 to every parameter and reports the client's ID as
// loss, making aggregation results easy to predict.
type fakeTrainer struct {
	calls atomic.Int64
	fail  bool
}

func (f *fakeTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	f.calls.Add(1)
	if f.fail {
		return nil, errors.New("boom")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := make([]float64, len(global))
	for i, v := range global {
		params[i] = v + 1
	}
	return &Update{
		ClientID:   c.ID,
		Params:     params,
		NumSamples: c.Train.Len(),
		TrainLoss:  float64(c.ID),
	}, nil
}

type fakePersonalizer struct{}

func (fakePersonalizer) Personalize(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector) (float64, error) {
	return float64(c.ID) / 100, nil
}

func testClients(t *testing.T, n int) []*partition.Client {
	t.Helper()
	g, err := data.NewGenerator(data.CIFAR10Spec(), 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	ds := g.GenerateLabeled(rng, 40)
	parts, err := partition.IID(rng, ds, n, 20)
	if err != nil {
		t.Fatalf("IID: %v", err)
	}
	return partition.BuildClients(rng, ds, parts, nil)
}

func fakeMethod(tr Trainer) *Method {
	return &Method{
		Name:         "fake",
		Trainer:      tr,
		Aggregator:   WeightedAverage{},
		Personalizer: fakePersonalizer{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			return make([]float64, 4), nil
		},
	}
}

func TestMethodValidate(t *testing.T) {
	m := fakeMethod(&fakeTrainer{})
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := *m
	bad.Trainer = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing trainer should fail validation")
	}
	bad = *m
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing name should fail validation")
	}
}

func TestSimulatorRunsRounds(t *testing.T) {
	clients := testClients(t, 10)
	tr := &fakeTrainer{}
	sim, err := NewSimulator(SimConfig{Rounds: 5, ClientsPerRound: 4, Seed: 7}, fakeMethod(tr), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, hist, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Every round the average of (global+1) is global+1, so after 5 rounds
	// the global vector is all 5s.
	for _, v := range global {
		if v != 5 {
			t.Fatalf("global = %v, want all 5", global)
		}
	}
	if len(hist) != 5 {
		t.Fatalf("history length = %d", len(hist))
	}
	if got := tr.calls.Load(); got != 20 {
		t.Fatalf("trainer calls = %d, want 20", got)
	}
	for _, h := range hist {
		if len(h.Participants) != 4 {
			t.Fatalf("round %d participants = %v", h.Round, h.Participants)
		}
	}
}

func TestSimulatorDeterministicAcrossParallelism(t *testing.T) {
	clients := testClients(t, 8)
	run := func(par int) []float64 {
		sim, err := NewSimulator(SimConfig{Rounds: 3, ClientsPerRound: 4, Seed: 11, Parallelism: par}, fakeMethod(&fakeTrainer{}), clients)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		g, _, err := sim.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return g
	}
	g1 := run(1)
	g8 := run(8)
	for i := range g1 {
		if g1[i] != g8[i] {
			t.Fatal("results must not depend on parallelism")
		}
	}
}

func TestSimulatorPropagatesTrainerError(t *testing.T) {
	clients := testClients(t, 4)
	sim, err := NewSimulator(SimConfig{Rounds: 2, ClientsPerRound: 2, Seed: 3}, fakeMethod(&fakeTrainer{fail: true}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err == nil {
		t.Fatal("trainer failure must surface")
	}
}

func TestSimulatorHonorsContextCancellation(t *testing.T) {
	clients := testClients(t, 4)
	sim, err := NewSimulator(SimConfig{Rounds: 1000, ClientsPerRound: 2, Seed: 3}, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sim.Run(ctx); err == nil {
		t.Fatal("canceled context must abort the run")
	}
}

func TestSimulatorValidation(t *testing.T) {
	clients := testClients(t, 4)
	m := fakeMethod(&fakeTrainer{})
	if _, err := NewSimulator(SimConfig{Rounds: 0, ClientsPerRound: 2}, m, clients); err == nil {
		t.Fatal("rounds=0 should error")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 0}, m, clients); err == nil {
		t.Fatal("clientsPerRound=0 should error")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1}, m, nil); err == nil {
		t.Fatal("no clients should error")
	}
}

func TestOnRoundCallback(t *testing.T) {
	clients := testClients(t, 5)
	var rounds []int
	cfg := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 5, OnRound: func(s RoundStats) {
		rounds = append(rounds, s.Round)
	}}
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rounds) != 3 || rounds[0] != 0 || rounds[2] != 2 {
		t.Fatalf("OnRound rounds = %v", rounds)
	}
}

func TestUniformSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := UniformSampler{}
	got := s.Sample(rng, 10, 4)
	if len(got) != 4 {
		t.Fatalf("sample size = %d", len(got))
	}
	seen := map[int]bool{}
	for _, id := range got {
		if id < 0 || id >= 10 || seen[id] {
			t.Fatalf("bad sample %v", got)
		}
		seen[id] = true
	}
	// perRound ≥ population returns everyone.
	all := s.Sample(rng, 3, 5)
	if len(all) != 3 {
		t.Fatalf("oversample = %v", all)
	}
}

func TestWeightedAverage(t *testing.T) {
	global := []float64{0, 0}
	updates := []*Update{
		{ClientID: 0, Params: []float64{1, 2}, NumSamples: 1},
		{ClientID: 1, Params: []float64{3, 4}, NumSamples: 3},
	}
	out, err := WeightedAverage{}.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if math.Abs(out[0]-2.5) > 1e-12 || math.Abs(out[1]-3.5) > 1e-12 {
		t.Fatalf("weighted avg = %v", out)
	}
	if _, err := (WeightedAverage{}).Aggregate(global, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("empty updates err = %v", err)
	}
	if _, err := (WeightedAverage{}).Aggregate(global, []*Update{{Params: []float64{1}}}); err == nil {
		t.Fatal("length mismatch should error")
	}
	// Zero samples fall back to weight 1.
	out, err = WeightedAverage{}.Aggregate(global, []*Update{{Params: []float64{2, 2}, NumSamples: 0}})
	if err != nil || out[0] != 2 {
		t.Fatalf("zero-sample fallback = %v, %v", out, err)
	}
}

func TestDivergenceWeightedFavorsLowDivergence(t *testing.T) {
	global := []float64{0}
	updates := []*Update{
		{ClientID: 0, Params: []float64{0}, NumSamples: 10, Divergence: 0.1},
		{ClientID: 1, Params: []float64{1}, NumSamples: 10, Divergence: 2.0},
	}
	agg := &DivergenceWeighted{}
	out, err := agg.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	// Client 1 (high divergence, params=1) must be down-weighted: result
	// strictly below the plain average of 0.5.
	if out[0] >= 0.5 {
		t.Fatalf("divergence weighting ineffective: %v", out[0])
	}
	if out[0] <= 0 {
		t.Fatalf("high-divergence client must still contribute: %v", out[0])
	}
	if _, err := agg.Aggregate(global, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatal("empty updates should error")
	}
}

func TestDivergenceWeightedEqualDivergencesMatchFedAvg(t *testing.T) {
	global := []float64{0, 0}
	updates := []*Update{
		{ClientID: 0, Params: []float64{1, 0}, NumSamples: 2, Divergence: 1},
		{ClientID: 1, Params: []float64{3, 2}, NumSamples: 2, Divergence: 1},
	}
	agg := &DivergenceWeighted{}
	got, err := agg.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	want, err := WeightedAverage{}.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("equal divergences should reduce to FedAvg: %v vs %v", got, want)
		}
	}
}

func TestMaskedAverage(t *testing.T) {
	global := []float64{10, 20, 30}
	updates := []*Update{
		{ClientID: 0, Params: []float64{1, 2, 3}, NumSamples: 1},
		{ClientID: 1, Params: []float64{3, 4, 5}, NumSamples: 1},
	}
	agg := &MaskedAverage{Mask: []bool{true, false, true}}
	out, err := agg.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if out[0] != 2 || out[1] != 20 || out[2] != 4 {
		t.Fatalf("masked avg = %v", out)
	}
	bad := &MaskedAverage{Mask: []bool{true}}
	if _, err := bad.Aggregate(global, updates); err == nil {
		t.Fatal("mask length mismatch should error")
	}
}

func TestScaffoldAggregator(t *testing.T) {
	global := []float64{1, 1}
	agg := &ScaffoldAggregator{ServerLR: 1, NumClients: 4}
	updates := []*Update{
		{ClientID: 0, Params: []float64{2, 2}, NumSamples: 1, ControlDelta: []float64{0.4, 0}},
		{ClientID: 1, Params: []float64{0, 4}, NumSamples: 1, ControlDelta: []float64{0, 0.8}},
	}
	out, err := agg.Aggregate(global, updates)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	// Mean delta = ((1,1)+(-1,3))/2 = (0,2).
	if out[0] != 1 || out[1] != 3 {
		t.Fatalf("scaffold global = %v", out)
	}
	ctl := agg.Control(2)
	if math.Abs(ctl[0]-0.1) > 1e-12 || math.Abs(ctl[1]-0.2) > 1e-12 {
		t.Fatalf("server control = %v", ctl)
	}
	if _, err := agg.Aggregate(global, nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatal("empty updates should error")
	}
	badUpdates := []*Update{{Params: []float64{1, 1}, ControlDelta: []float64{1}}}
	if _, err := agg.Aggregate(global, badUpdates); err == nil {
		t.Fatal("control delta length mismatch should error")
	}
}

func TestPersonalizeAll(t *testing.T) {
	clients := testClients(t, 6)
	m := fakeMethod(&fakeTrainer{})
	accs, err := PersonalizeAll(context.Background(), 1, m, clients, []float64{0}, 3)
	if err != nil {
		t.Fatalf("PersonalizeAll: %v", err)
	}
	if len(accs) != 6 {
		t.Fatalf("accs = %v", accs)
	}
	for i, a := range accs {
		if a != float64(i)/100 {
			t.Fatalf("acc[%d] = %v", i, a)
		}
	}
}

func TestClientRNGDeterminism(t *testing.T) {
	a := ClientRNG(1, 2, 3).Float64()
	b := ClientRNG(1, 2, 3).Float64()
	if a != b {
		t.Fatal("ClientRNG must be deterministic")
	}
	c := ClientRNG(1, 2, 4).Float64()
	if a == c {
		t.Fatal("different clients should get different streams")
	}
}

// Property: WeightedAverage output stays within the per-coordinate range of
// its inputs (convexity).
func TestWeightedAverageConvexityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(5)
		n := 1 + rng.Intn(5)
		updates := make([]*Update, n)
		for i := range updates {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			updates[i] = &Update{Params: p, NumSamples: 1 + rng.Intn(50)}
		}
		out, err := WeightedAverage{}.Aggregate(make([]float64, dim), updates)
		if err != nil {
			return false
		}
		for j := 0; j < dim; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, u := range updates {
				lo = math.Min(lo, u.Params[j])
				hi = math.Max(hi, u.Params[j])
			}
			if out[j] < lo-1e-9 || out[j] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// panicTrainer panics on a chosen client to exercise panic isolation.
type panicTrainer struct {
	inner   fakeTrainer
	panicOn int
}

func (p *panicTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	if c.ID == p.panicOn {
		panic("trainer exploded")
	}
	return p.inner.Train(ctx, rng, c, global, round)
}

// TestClientPanicBecomesTypedError pins the sweep scheduler's foundation:
// a panicking trainer inside a client goroutine surfaces as *PanicError
// from Run instead of crashing the process.
func TestClientPanicBecomesTypedError(t *testing.T) {
	clients := testClients(t, 4)
	m := fakeMethod(&panicTrainer{panicOn: clients[1].ID})
	sim, err := NewSimulator(SimConfig{Rounds: 2, ClientsPerRound: 4, Seed: 1}, m, clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	_, _, err = sim.Run(context.Background())
	if err == nil {
		t.Fatal("panicking trainer did not fail the run")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PanicError: %v", err)
	}
	if pe.Value != "trainer exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack not captured: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
}
