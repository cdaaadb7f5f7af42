package flnet

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// driftTrainer nudges every element by a client- and round-dependent
// amount, so consecutive globals differ everywhere — the compressed
// uplink's realistic (SGD-like) case.
type driftTrainer struct{}

func (driftTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := global.Clone()
	for i := range params {
		params[i] += 1e-4 * float64(c.ID+1) * float64(round+i%3+1)
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len()}, nil
}

// noiseTrainer ships finite full-entropy params: their XOR against any
// global varint-encodes above 8 bytes a word, so wireUpdate sends every
// one of them dense.
type noiseTrainer struct{}

func (noiseTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := make(param.Vector, len(global))
	for i := range params {
		params[i] = math.Float64frombits(rng.Uint64()>>2 | 1)
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len()}, nil
}

func wireInitGlobal(rng *rand.Rand) (param.Vector, error) {
	v := make(param.Vector, 64)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v, nil
}

// runWireFederation runs a full federation over loopback and returns the
// final result plus the uplink's (wire, dense) byte totals.
func runWireFederation(t *testing.T, n, rounds int, trainer fl.Trainer) (res *Result, wire, dense int64) {
	t.Helper()
	clients := netClients(t, n)
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: n, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: wireInitGlobal,
		IOTimeout:  20 * time.Second,
		Obs:        reg,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: trainer, Personalizer: idPersonalizer{}, Seed: 7,
			})
			if err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(i)
	}
	res, err = srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	counters := reg.Snapshot().Counters
	return res, counters[obs.CounterUplinkWireBytes], counters[obs.CounterUplinkDenseBytes]
}

// TestDeltaWireBitIdenticalToDense pins the compression contract from
// both sides of wireUpdate's choice: a federation whose updates all ship
// as XOR-deltas and one whose updates all fall back to dense frames each
// produce the global and history the simulator — which has no wire —
// computes for the same trainer.
func TestDeltaWireBitIdenticalToDense(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trainer fl.Trainer
		dense   bool
	}{
		{"delta-uplink", driftTrainer{}, false},
		{"dense-uplink", noiseTrainer{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, wire, dense := runWireFederation(t, 3, 3, tc.trainer)
			if dense == 0 || (wire == dense) != tc.dense || wire > dense {
				t.Fatalf("uplink shipped %d bytes, dense form %d: want dense=%v", wire, dense, tc.dense)
			}
			sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 3, ClientsPerRound: 3, Seed: 7}, &fl.Method{
				Name: tc.name, Trainer: tc.trainer, Aggregator: fl.WeightedAverage{},
				Personalizer: idPersonalizer{}, InitGlobal: wireInitGlobal,
			}, netClients(t, 3))
			if err != nil {
				t.Fatalf("NewSimulator: %v", err)
			}
			global, history, err := sim.Run(context.Background())
			if err != nil {
				t.Fatalf("sim Run: %v", err)
			}
			if len(res.Global) != len(global) {
				t.Fatalf("global length %d vs %d", len(res.Global), len(global))
			}
			for i := range global {
				if math.Float64bits(res.Global[i]) != math.Float64bits(global[i]) {
					t.Fatalf("global element %d differs from the simulator's", i)
				}
			}
			if !reflect.DeepEqual(res.History, history) {
				t.Fatalf("history differs from the simulator's:\nnet %+v\nsim %+v", res.History, history)
			}
		})
	}
}

// wrongSizeTrainer emits a payload that cannot belong to this federation.
type wrongSizeTrainer struct{}

func (wrongSizeTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	return &fl.Update{ClientID: c.ID, Params: make(param.Vector, len(global)+3), NumSamples: 1}, nil
}

// TestServerRejectsWrongSizeUpdate pins the ingress contract: a client
// shipping a wrong-length payload is evicted while the round aggregates
// the remaining updates — the round is degraded, never panicked.
func TestServerRejectsWrongSizeUpdate(t *testing.T) {
	n := 3
	clients := netClients(t, n)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: 1, ClientsPerRound: n, Seed: 7,
		Quorum:        1,
		RoundDeadline: 30 * time.Second,
		Aggregator:    fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) {
			return make(param.Vector, 8), nil
		},
		IOTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var trainer fl.Trainer = addOneTrainer{}
			if id == 1 {
				trainer = wrongSizeTrainer{}
			}
			// The misbehaving client is evicted server-side, so its RunClient
			// exits with a transport error; the others shut down cleanly.
			_ = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: trainer, Personalizer: idPersonalizer{}, Seed: 7,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	h := res.History[0]
	if len(h.Stragglers) != 1 || h.Stragglers[0] != 1 {
		t.Fatalf("round 0 stragglers = %v, want [1]", h.Stragglers)
	}
	if _, ok := res.Accuracies[1]; ok {
		t.Fatal("rejected client still personalized")
	}
	if len(res.Accuracies) != n-1 {
		t.Fatalf("got %d accuracies, want %d", len(res.Accuracies), n-1)
	}
}

// TestWireUpdateFallsBackToDense pins the sender-side guard: an update
// whose delta would not be smaller than the dense form ships dense.
func TestWireUpdateFallsBackToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	global := make(param.Vector, 256)
	random := make(param.Vector, 256)
	for i := range global {
		global[i] = rng.NormFloat64()
		random[i] = math.Float64frombits(rng.Uint64() | 1) // high-entropy, never equal
	}
	u := &fl.Update{ClientID: 0, Params: random, NumSamples: 1}
	if w := wireUpdate(u, global, nil); w.Delta != nil {
		t.Fatalf("high-entropy update was delta-encoded to %d bytes (dense %d)", w.Delta.Size(), 8*len(random))
	}
	// An SGD-like update compresses and therefore ships as a delta.
	closeBy := global.Clone()
	for i := range closeBy {
		closeBy[i] += 1e-9 * closeBy[i]
	}
	u = &fl.Update{ClientID: 0, Params: closeBy, NumSamples: 1}
	w := wireUpdate(u, global, &param.Delta{})
	if w.Delta == nil {
		t.Fatal("compressible update was not delta-encoded")
	}
	if w == u || u.Params == nil || u.Delta != nil {
		t.Fatal("wireUpdate mutated the trainer's update")
	}
	if got, err := w.Delta.Apply(global); err != nil {
		t.Fatalf("Apply: %v", err)
	} else {
		for i := range closeBy {
			if math.Float64bits(got[i]) != math.Float64bits(closeBy[i]) {
				t.Fatalf("delta reconstruction differs at %d", i)
			}
		}
	}
}
