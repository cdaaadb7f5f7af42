package flnet

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calibre/internal/baselines"
	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// arrayWitness wraps an aggregator and records the backing array of every
// update vector it is handed. Wrapping hides a streaming aggregator's sink,
// so the round goes through the buffering sink, which holds every update
// until Finish.
type arrayWitness struct {
	fl.Aggregator
	params, control map[*float64]bool
}

func (w *arrayWitness) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	for _, u := range updates {
		w.params[&u.Params[0]] = true
		if u.ControlDelta != nil {
			w.control[&u.ControlDelta[0]] = true
		}
	}
	return w.Aggregator.Aggregate(global, updates)
}

// runLendingFederation runs the training stage of an n-client federation
// with the round engine kept in hand; slow, when set, delays a client's
// local update for a round.
func runLendingFederation(t *testing.T, n int, cfg ServerConfig, m *fl.Method, slow func(id, round int) time.Duration) (*roundEngine, []fl.RoundStats) {
	t.Helper()
	clients := netClients(t, n)
	cfg.Addr, cfg.NumClients, cfg.Seed, cfg.IOTimeout = "127.0.0.1:0", n, 7, 20*time.Second
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ccfg := ClientConfig{Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: m.Trainer, Personalizer: m.Personalizer, Seed: 7, IOTimeout: 20 * time.Second}
			if slow != nil {
				ccfg.SimLatency = func(round int) time.Duration { return slow(id, round) }
			}
			// The connections are closed under the clients below.
			_ = RunClient(ctx, ccfg)
		}()
	}
	go srv.acceptLoop()
	if err := srv.awaitQuorumJoin(ctx); err != nil {
		t.Fatal(err)
	}
	eng := newRoundEngine(srv)
	_, history, err := fl.RunRounds(ctx, srv.cfg.round(), eng)
	srv.listener.Close()
	srv.closeAll()
	close(srv.done)
	wg.Wait()
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	return eng, history
}

// TestReceiveVectorsBoundedByUpdatesInFlight: a server receives each update
// into a vector its round engine lends and takes back once the round that
// ingested it has closed, so eight clients sampled two a round over twelve
// rounds reach the aggregator in at most three arrays per frame kind — one
// per update in flight, plus one a straggler may hold — not one per client.
func TestReceiveVectorsBoundedByUpdatesInFlight(t *testing.T) {
	const n, rounds, perRound = 8, 12, 2
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	bcfg := baselines.DefaultConfig(arch, 10)
	bcfg.Train.Epochs, bcfg.Train.BatchSize = 1, 16
	drift := &fl.Method{Trainer: driftTrainer{}, Personalizer: idPersonalizer{}, Aggregator: fl.WeightedAverage{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	for _, tc := range []struct {
		name    string
		m       *fl.Method
		control bool
	}{
		{"fedavg", drift, false},
		{"scaffold", baselines.NewScaffold(bcfg, n), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &arrayWitness{Aggregator: tc.m.Aggregator, params: map[*float64]bool{}, control: map[*float64]bool{}}
			runLendingFederation(t, n, ServerConfig{Rounds: rounds, ClientsPerRound: perRound,
				Aggregator: w, InitGlobal: tc.m.InitGlobal}, tc.m, nil)
			if len(w.params) > perRound+1 {
				t.Errorf("updates arrived in %d distinct Params arrays, want at most %d", len(w.params), perRound+1)
			}
			if tc.control && (len(w.control) == 0 || len(w.control) > perRound+1) {
				t.Errorf("updates arrived in %d distinct ControlDelta arrays, want 1 to %d", len(w.control), perRound+1)
			}
		})
	}
}

// aliasingTrainer records the backing array of every global it is handed,
// and trains in place: its update is the global itself, which the client
// must not give back before the reply carrying it is sent.
type aliasingTrainer struct {
	mu      sync.Mutex
	globals map[*float64]bool
}

func (a *aliasingTrainer) Train(_ context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	a.mu.Lock()
	a.globals[&global[0]] = true
	a.mu.Unlock()
	for i := range global {
		global[i] += 1e-4 * float64(c.ID+1) * float64(round+1)
	}
	return &fl.Update{ClientID: c.ID, Params: global, NumSamples: c.Train.Len()}, nil
}

// TestClientGlobalsPerRunningTrainer: a client receives each global into a
// vector it borrows from param's pool and gives back once its reply is sent,
// so eight in-process clients sampled two a round over twelve rounds train
// on at most three arrays — one per request being served, plus one whose
// give-back the next round's dispatch overtook — and the pool ends the run
// holding no more than that beyond what it held before. A global kept per
// connection is one array per client, and none of them in the pool.
func TestClientGlobalsPerRunningTrainer(t *testing.T) {
	const n, rounds, perRound = 8, 12, 2
	trainer := &aliasingTrainer{globals: map[*float64]bool{}}
	m := &fl.Method{Trainer: trainer, Personalizer: idPersonalizer{}, Aggregator: fl.WeightedAverage{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	before := param.Idle()
	_, history := runLendingFederation(t, n, ServerConfig{Rounds: rounds, ClientsPerRound: perRound,
		Aggregator: m.Aggregator, InitGlobal: m.InitGlobal}, m, nil)
	after := param.Idle()
	if len(history) != rounds {
		t.Fatalf("%d rounds ran, want %d", len(history), rounds)
	}
	if len(trainer.globals) > perRound+1 {
		t.Errorf("clients trained on %d distinct global arrays, want at most %d", len(trainer.globals), perRound+1)
	}
	if grew := after - before; grew > perRound+1 {
		t.Errorf("the pool holds %d more vectors after the run, want at most %d", grew, perRound+1)
	}
}

// TestStaleReplyVectorsReclaimed: a requeued straggler's stale reply gives
// its vector back to the free list instead of leaking it, so the engine
// ends the run owning exactly one vector per participant plus the one the
// straggler's reply brought back, and the aggregator still sees no more
// arrays than that.
func TestStaleReplyVectorsReclaimed(t *testing.T) {
	const n, rounds, perRound = 8, 10, 2
	var straggled atomic.Bool
	slept := make(chan struct{})
	slow := func(id, round int) time.Duration {
		if round != 0 || !straggled.CompareAndSwap(false, true) {
			return 0
		}
		// The first of round 0's participants to train sleeps through the
		// deadline.
		time.AfterFunc(600*time.Millisecond, func() { close(slept) })
		return 500 * time.Millisecond
	}
	m := &fl.Method{Trainer: driftTrainer{}, Personalizer: idPersonalizer{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	w := &arrayWitness{Aggregator: fl.WeightedAverage{}, params: map[*float64]bool{}, control: map[*float64]bool{}}
	cfg := ServerConfig{Rounds: rounds, ClientsPerRound: perRound, Aggregator: w, InitGlobal: m.InitGlobal,
		Quorum: 1, RoundDeadline: 200 * time.Millisecond, Straggler: fl.StragglerRequeue,
		OnRound: func(h fl.RoundStats) {
			if h.DeadlineExpired {
				// Hold the round boundary until the stale reply is queued, so
				// the next round's collection window drains it.
				<-slept
				time.Sleep(100 * time.Millisecond)
			}
		}}
	eng, history := runLendingFederation(t, n, cfg, m, slow)
	late := 0
	for _, h := range history {
		late += h.LateUpdates
	}
	if !history[0].DeadlineExpired || late != 1 {
		t.Fatalf("round 0 expired %v, %d late updates: want the straggler's one stale reply drained in a round", history[0].DeadlineExpired, late)
	}
	if owned := len(eng.free[frameParams]) + len(eng.held[frameParams]); owned != perRound+1 {
		t.Errorf("the engine owns %d Params vectors after the run, want %d (%d participants and the stale reply's)", owned, perRound+1, perRound)
	}
	if len(w.params) > perRound+1 {
		t.Errorf("updates arrived in %d distinct Params arrays, want at most %d", len(w.params), perRound+1)
	}
}
