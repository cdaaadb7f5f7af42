package baselines

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"calibre/internal/fl"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// The trainers of this package return their client model's own value vector
// as the update's payload, lent until the round closes (fl.Trainer). witness
// holds a federation to that contract from both ends: it wraps the method's
// trainer to copy every payload the moment Train returns, and its aggregator
// to compare each lent vector with its copy when the round closes — after
// the transport, the adversary wrapper, the delta codec and the sink have all
// had it — and to check that no global the round engine hands out is a
// client's storage.
type witness struct {
	t *testing.T

	mu      sync.Mutex
	lent    map[int]lentPayload // this round's payloads, by client
	storage map[int][]float64   // each client's last payload vector
	relent  int                 // payloads that were the vector the client lent before
	closes  int
}

type lentPayload struct{ vector, atReturn []float64 }

func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	lo := func(v []float64) uintptr { return uintptr(unsafe.Pointer(&v[0])) }
	return lo(a) < lo(b)+8*uintptr(len(b)) && lo(b) < lo(a)+8*uintptr(len(a))
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// wrap puts the witness around m's trainer and aggregator, keeping a
// streaming aggregator streaming.
func (w *witness) wrap(m *fl.Method) *fl.Method {
	wrapped := *m
	wrapped.Trainer = witnessTrainer{w, m.Trainer}
	if s, ok := m.Aggregator.(fl.StreamingAggregator); ok {
		wrapped.Aggregator = witnessStreaming{witnessAggregator{w, m.Aggregator}, s}
	} else {
		wrapped.Aggregator = witnessAggregator{w, m.Aggregator}
	}
	return &wrapped
}

// notAClient fails if global is (part of) a vector a client lent.
func (w *witness) notAClient(global param.Vector, what string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, v := range w.storage {
		if overlap(global, v) {
			w.t.Errorf("%s is client %d's own vector", what, id)
		}
	}
}

// roundCloses compares every payload lent this round with its copy.
func (w *witness) roundCloses() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, p := range w.lent {
		if !bitsEqual(p.vector, p.atReturn) {
			w.t.Errorf("client %d's payload changed between Train's return and the round's close", id)
		}
	}
	clear(w.lent)
	w.closes++
}

type witnessTrainer struct {
	w     *witness
	inner fl.Trainer
}

func (t witnessTrainer) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	t.w.notAClient(global, "the global a round trains on")
	u, err := t.inner.Train(ctx, rng, client, global, round)
	if err != nil {
		return nil, err
	}
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	if old, ok := t.w.storage[client.ID]; ok && len(old) > 0 && &old[0] == &u.Params[0] {
		t.w.relent++
	}
	t.w.storage[client.ID] = u.Params
	t.w.lent[client.ID] = lentPayload{u.Params, u.Params.Clone()}
	return u, nil
}

type witnessAggregator struct {
	w     *witness
	inner fl.Aggregator
}

func (a witnessAggregator) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	a.w.roundCloses()
	next, err := a.inner.Aggregate(global, updates)
	a.w.notAClient(next, "the aggregate")
	return next, err
}

type witnessStreaming struct {
	witnessAggregator
	stream fl.StreamingAggregator
}

func (a witnessStreaming) NewSink(global param.Vector) fl.UpdateSink {
	return witnessSink{a.w, a.stream.NewSink(global)}
}

type witnessSink struct {
	w *witness
	fl.UpdateSink
}

func (s witnessSink) Finish() (param.Vector, error) {
	s.w.roundCloses()
	next, err := s.UpdateSink.Finish()
	s.w.notAClient(next, "the aggregate")
	return next, err
}

// TestLentPayloadSurvivesTheRound runs witnessed federations, on several
// client goroutines (the suite runs under -race), over everything that sits
// between Train's return and the round's close: a streaming sink, a
// buffering one, the robust aggregators, every adversary kind around the
// trainer, SCAFFOLD's second payload.
func TestLentPayloadSurvivesTheRound(t *testing.T) {
	clients := testClients(t, 6, 24)
	type testCase struct {
		name   string
		method string
		agg    fl.Aggregator // replaces the method's when non-nil
		sim    func(*fl.SimConfig)
	}
	cases := []testCase{
		{name: "streaming sink (WeightedAverage)", method: "fedavg"},
		{name: "buffering sink (DivergenceWeighted)", method: "calibre-simclr"},
		{name: "masked average, private heads", method: "fedper"},
		{name: "control variates", method: "scaffold"},
		{name: "ema merge into the lent vector", method: "fedema"},
		{name: "personal branch beside the lent vector", method: "apfl"},
		{name: "median", method: "fedavg", agg: fl.CoordinateMedian{}},
		{name: "trimmed mean", method: "fedavg", agg: fl.TrimmedMean{Frac: 0.25}},
		{name: "krum", method: "fedavg", agg: fl.Krum{F: 1}},
	}
	for _, kind := range []fl.AdversaryKind{fl.AdvSignFlip, fl.AdvNoise, fl.AdvCollude, fl.AdvLabelFlip} {
		cases = append(cases, testCase{name: "adversary " + string(kind), method: "fedavg", sim: func(c *fl.SimConfig) {
			c.Adversary = &fl.Adversary{Kind: kind, Frac: 0.5}
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Build(tc.method, testCfg(), len(clients))
			if err != nil {
				t.Fatal(err)
			}
			if tc.agg != nil {
				m.Aggregator = tc.agg
			}
			w := &witness{t: t, lent: map[int]lentPayload{}, storage: map[int][]float64{}}
			cfg := fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 17, Parallelism: 3}
			if tc.sim != nil {
				tc.sim(&cfg)
			}
			sim, err := fl.NewSimulator(cfg, w.wrap(m), clients)
			if err != nil {
				t.Fatal(err)
			}
			global, _, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w.notAClient(global, "the final global")
			if w.closes != cfg.Rounds {
				t.Fatalf("the witness saw %d rounds close, the run had %d", w.closes, cfg.Rounds)
			}
			if w.relent == 0 {
				t.Fatal("no client lent the same vector twice: the payloads are not client state and the test shows nothing")
			}
		})
	}
}

// TestPartialSharingKeepsThePrivateHalf: fedper's update is the whole client
// model, lent; the round engine aggregates its encoder and must leave its
// head alone. A client's head at the start of a round is, bit for bit, the
// head it ended its last round on.
func TestPartialSharingKeepsThePrivateHalf(t *testing.T) {
	clients := testClients(t, 4, 24)
	m, err := Build("fedper", testCfg(), len(clients))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Trainer.(*partial)
	headLen := nn.LinearSize(p.cfg.Arch.FeatDim, p.cfg.NumClasses)
	var mu sync.Mutex
	heads := map[int][]float64{}
	kept := 0
	wrapped := *m
	wrapped.Trainer = trainerFunc(func(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
		if model, known := p.states.Peek(client.ID); known {
			mu.Lock()
			if !bitsEqual(nn.Values(model.Head), heads[client.ID]) {
				t.Errorf("round %d: client %d's private head is not the one its last round ended on", round, client.ID)
			}
			kept++
			mu.Unlock()
		}
		u, err := p.Train(ctx, rng, client, global, round)
		if err == nil {
			mu.Lock()
			heads[client.ID] = append([]float64(nil), u.Params[len(u.Params)-headLen:]...)
			mu.Unlock()
		}
		return u, err
	})
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 19, Parallelism: 2}, &wrapped, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if kept != 3*len(clients) {
		t.Fatalf("checked %d returning clients, want %d", kept, 3*len(clients))
	}
}

type trainerFunc func(context.Context, *rand.Rand, *partition.Client, param.Vector, int) (*fl.Update, error)

func (f trainerFunc) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	return f(ctx, rng, client, global, round)
}

// TestWarmedRoundAllocatesLessThanTwoParameterVectors: once every client has
// its model, a simulator round of fedavg allocates the sink's accumulator
// (the next global, which the Aggregator contract wants fresh) and small
// change — no per-client copy of the global going in, of the update coming
// out or of the optimizer's velocity — so the bytes a round allocates do not
// grow with the number of clients it trains.
func TestWarmedRoundAllocatesLessThanTwoParameterVectors(t *testing.T) {
	clients := testClients(t, 8, 24)
	cfg := testCfg()
	cfg.Arch.HiddenDim, cfg.Arch.FeatDim = 256, 64 // a vector that dwarfs a round's bookkeeping
	vector := uint64(8 * nn.ParamCount(newSupBase(cfg).newModel(rand.New(rand.NewSource(0)))))
	for _, perRound := range []int{2, 8} {
		m := NewFedAvg(cfg)
		var marks []uint64
		sim, err := fl.NewSimulator(fl.SimConfig{
			Rounds: 7, ClientsPerRound: perRound, Seed: 23, Parallelism: 2,
			OnRound: func(fl.RoundStats) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				marks = append(marks, ms.TotalAlloc)
			},
		}, m, clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// With 8 clients, 2 a round, a late round may still meet a client
		// for the first time and build its model: the cheapest of the last
		// rounds is a warmed one.
		least := uint64(math.MaxUint64)
		for i := 3; i < len(marks); i++ {
			least = min(least, marks[i]-marks[i-1])
		}
		if least >= 2*vector {
			t.Errorf("%d clients a round: a warmed round allocates %d bytes, two parameter vectors are %d", perRound, least, 2*vector)
		}
	}
}
