package flnet

import (
	"context"
	"maps"
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

// Every vector a federation receives — a client's global, the server's
// updates — and every update a stateless method trains is borrowed from
// param's one process-wide pool and given back by whoever consumes it last
// (fl.Update.Lent). The tests below run whole in-process federations, in
// which the server and the clients share that pool, and hold them to two
// things: every vector is back in the pool when the run is over, and the
// arrays a run touches number no more than the vectors it holds at once.
// That is what the round's requests hold — on a client its global and what
// its local update borrows, on the server the vectors its reply is received
// into — and what a client whose reply is in may not have given back yet
// when the next round starts; the bounds count every borrower of the
// model's size, because the pool lends each what another gave back — the
// server's round globals too (serverGlobals). Each federation samples more
// clients than its bound, so a vector kept per client, not per request,
// shows.

// serverGlobals is what the server's round loop holds at once of the
// pool's model-sized vectors: the round's global, the aggregate that will
// supersede it, and a superseded one that a write-behind save or an
// expired round's straggler may still read.
const serverGlobals = 3

// arrays records vectors by their backing array.
type arrays map[*float64]param.Vector

func (a arrays) add(v param.Vector) {
	if len(v) > 0 {
		a[&v[0]] = v
	}
}

// notGivenBack counts the arrays of the sets that are not free in param's
// pool, but for those the round loop keeps (runLendingFederation).
func notGivenBack(kept arrays, sets ...arrays) int {
	n := 0
	for _, set := range sets {
		for array, v := range set {
			if _, k := kept[array]; !k && !param.IsIdle(v) {
				n++
			}
		}
	}
	return n
}

// arrayWitness wraps an aggregator and records the backing array of every
// update vector it is handed. Wrapping hides a streaming aggregator's sink,
// so the round goes through the buffering sink, which holds every update
// until Finish.
type arrayWitness struct {
	fl.Aggregator
	params, control arrays
}

func newArrayWitness(inner fl.Aggregator) *arrayWitness {
	return &arrayWitness{Aggregator: inner, params: arrays{}, control: arrays{}}
}

func (w *arrayWitness) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	for _, u := range updates {
		w.params.add(u.Params)
		w.control.add(u.ControlDelta)
	}
	return w.Aggregator.Aggregate(global, updates)
}

// arrayTrainer wraps a trainer and records the backing array of every global
// it is handed and of every update it returns.
type arrayTrainer struct {
	fl.Trainer
	mu              sync.Mutex
	globals, params arrays
	notLent         int // updates that were not Lent
}

func newArrayTrainer(inner fl.Trainer) *arrayTrainer {
	return &arrayTrainer{Trainer: inner, globals: arrays{}, params: arrays{}}
}

func (a *arrayTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	a.mu.Lock()
	a.globals.add(global)
	a.mu.Unlock()
	u, err := a.Trainer.Train(ctx, rng, c, global, round)
	if err == nil {
		a.mu.Lock()
		a.params.add(u.Params)
		if !u.Lent {
			a.notLent++
		}
		a.mu.Unlock()
	}
	return u, err
}

// roundGlobals is the server's round engine, recording the global each
// round collects over.
type roundGlobals struct {
	*roundEngine
	globals []param.Vector
}

func (g *roundGlobals) Collect(ctx context.Context, r *fl.Round) error {
	g.globals = append(g.globals, r.Global)
	return g.roundEngine.Collect(ctx, r)
}

// runLendingFederation runs the training stage of an n-client federation;
// slow, when set, delays a client's local update for a round. Every client
// has returned when it does. It fails the test unless the run sampled more
// than bound clients: a bound on the arrays it touches that as many clients
// would meet shows nothing. Besides the history it returns the arrays of
// the globals the round loop does not give back to the pool, which may be
// arrays a client or an update was lent before: the final global, which is
// the caller's, the one the final round superseded, which no later round
// borrows, and an expired round's, which a straggler's send may read.
func runLendingFederation(t *testing.T, n, bound int, cfg ServerConfig, m *fl.Method, slow func(id, round int) time.Duration) (history []fl.RoundStats, kept arrays) {
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
	eng := &roundGlobals{roundEngine: newRoundEngine(srv)}
	global, history, err := fl.RunRounds(ctx, srv.cfg.round(), eng)
	srv.listener.Close()
	srv.closeAll()
	close(srv.done)
	wg.Wait()
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	sampled := map[int]bool{}
	for _, h := range history {
		for _, id := range h.Participants {
			sampled[id] = true
		}
	}
	if len(sampled) <= bound {
		t.Fatalf("the run sampled %d clients, not more than the %d arrays it may touch: it shows nothing", len(sampled), bound)
	}
	kept = arrays{}
	kept.add(global)
	kept.add(eng.globals[len(eng.globals)-1])
	for r, h := range history {
		if h.DeadlineExpired {
			kept.add(eng.globals[r])
		}
	}
	return history, kept
}

// TestReceiveVectorsBoundedByUpdatesInFlight: a server receives each update
// into vectors borrowed from param's pool, which the round gives back once
// its sink has finished. So every update vector the aggregator saw is back
// in the pool after the run, and the update vectors of twenty-four clients
// sampled two a round over twenty rounds reach it in no more arrays than a
// round's two requests hold at once, with the globals of the two clients
// that may not have given theirs back yet and the server's own: on a client
// its global (and, SCAFFOLD's, the gradients and velocity its local update
// borrows), on the server its Params (and ControlDelta) — not one per
// client.
func TestReceiveVectorsBoundedByUpdatesInFlight(t *testing.T) {
	const n, rounds, perRound = 24, 20, 2
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	bcfg := baselines.DefaultConfig(arch, 10)
	bcfg.Train.Epochs, bcfg.Train.BatchSize = 1, 16
	drift := &fl.Method{Trainer: driftTrainer{}, Personalizer: idPersonalizer{}, Aggregator: fl.WeightedAverage{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	for _, tc := range []struct {
		name           string
		m              *fl.Method
		client, server int // vectors a request holds on its client and on the server
	}{
		{"fedavg", drift, 1, 1},
		{"scaffold", baselines.NewScaffold(bcfg, n), 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := perRound*(tc.client+tc.server) + perRound + serverGlobals
			w := newArrayWitness(tc.m.Aggregator)
			_, kept := runLendingFederation(t, n, bound, ServerConfig{Rounds: rounds, ClientsPerRound: perRound,
				Aggregator: w, InitGlobal: tc.m.InitGlobal}, tc.m, nil)
			if lost := notGivenBack(kept, w.params, w.control); lost > 0 {
				t.Errorf("%d update arrays the aggregator saw are not back in param's pool", lost)
			}
			if tc.server == 2 && len(w.control) == 0 {
				t.Error("no update carried a ControlDelta")
			}
			received := maps.Clone(w.params)
			maps.Copy(received, w.control)
			t.Logf("updates arrived in %d Params and %d ControlDelta arrays, %d distinct", len(w.params), len(w.control), len(received))
			if len(received) > bound {
				t.Errorf("updates arrived in %d distinct arrays, want at most %d", len(received), bound)
			}
		})
	}
}

// aliasingTrainer records the backing array of every global it is handed,
// and trains in place: its update is the global itself, which the client
// must not give back before the reply carrying it is sent.
type aliasingTrainer struct {
	mu      sync.Mutex
	globals arrays
}

func (a *aliasingTrainer) Train(_ context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	a.mu.Lock()
	a.globals.add(global)
	a.mu.Unlock()
	for i := range global {
		global[i] += 1e-4 * float64(c.ID+1) * float64(round+1)
	}
	return &fl.Update{ClientID: c.ID, Params: global, NumSamples: c.Train.Len()}, nil
}

// TestClientGlobalsPerRunningTrainer: a client receives each global into a
// vector it borrows from param's pool and gives back once its reply is sent,
// so twenty-four in-process clients sampled two a round over twenty rounds
// train on no more arrays than the round's two requests hold at once — a
// global on each client, the reply received into a vector on the server —
// with the globals of the two clients that may not have given theirs back
// yet and the server's own, and the pool ends the run holding no more than
// that beyond what it held before. A global kept per connection is one
// array per client, and none of them in the pool.
func TestClientGlobalsPerRunningTrainer(t *testing.T) {
	const n, rounds, perRound = 24, 20, 2
	const bound = perRound*2 + perRound + serverGlobals
	trainer := &aliasingTrainer{globals: arrays{}}
	m := &fl.Method{Trainer: trainer, Personalizer: idPersonalizer{}, Aggregator: fl.WeightedAverage{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	before := param.Idle()
	history, kept := runLendingFederation(t, n, bound, ServerConfig{Rounds: rounds, ClientsPerRound: perRound,
		Aggregator: m.Aggregator, InitGlobal: m.InitGlobal}, m, nil)
	after := param.Idle()
	if len(history) != rounds {
		t.Fatalf("%d rounds ran, want %d", len(history), rounds)
	}
	if len(trainer.globals) > bound {
		t.Errorf("clients trained on %d distinct global arrays, want at most %d", len(trainer.globals), bound)
	}
	if grew := after - before; grew > bound {
		t.Errorf("the pool holds %d more vectors after the run, want at most %d", grew, bound)
	}
	if lost := notGivenBack(kept, trainer.globals); lost > 0 {
		t.Errorf("%d global arrays are not back in param's pool", lost)
	}
}

// TestStaleReplyVectorsReclaimed: a requeued straggler's stale reply is
// given back at once (fl.Round.Late) instead of leaking, so every array the
// run touched — the clients' globals, the aggregated updates — is back in
// param's pool after it, and the updates reach the aggregator in no more
// arrays than TestReceiveVectorsBoundedByUpdatesInFlight's drift federation
// allows, plus the straggler's global and the vector its stale reply is
// received into. The expired round's global is the one the round loop
// leaves to the GC.
func TestStaleReplyVectorsReclaimed(t *testing.T) {
	const n, rounds, perRound = 24, 20, 2
	const bound = perRound*2 + perRound + 2 + serverGlobals
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
	trainer := newArrayTrainer(driftTrainer{})
	m := &fl.Method{Trainer: trainer, Personalizer: idPersonalizer{},
		InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 64), nil }}
	w := newArrayWitness(fl.WeightedAverage{})
	cfg := ServerConfig{Rounds: rounds, ClientsPerRound: perRound, Aggregator: w, InitGlobal: m.InitGlobal,
		Federation: fl.Federation{Quorum: 1, Straggler: fl.StragglerRequeue}, RoundDeadline: 200 * time.Millisecond,
		OnRound: func(h fl.RoundStats) {
			if h.DeadlineExpired {
				// Hold the round boundary until the stale reply is queued, so
				// the next round's collection window drains it.
				<-slept
				time.Sleep(100 * time.Millisecond)
			}
		}}
	history, kept := runLendingFederation(t, n, bound, cfg, m, slow)
	late := 0
	for _, h := range history {
		late += h.LateUpdates
	}
	if !history[0].DeadlineExpired || late != 1 {
		t.Fatalf("round 0 expired %v, %d late updates: want the straggler's one stale reply drained in a round", history[0].DeadlineExpired, late)
	}
	if lost := notGivenBack(kept, trainer.globals, w.params); lost > 0 {
		t.Errorf("%d arrays the run received into are not back in param's pool", lost)
	}
	if len(w.params) > bound {
		t.Errorf("updates arrived in %d distinct Params arrays, want at most %d", len(w.params), bound)
	}
}

// TestClientModelsPerRunningTrainer: a fedavg client trains a model it
// borrows for the local update, in values borrowed from param's pool, and
// ships those values as a Lent update that it gives back once the reply is
// sent. So the update arrays leaving 24 in-process clients, two a round
// over twenty rounds, are bounded by the round's requests: each holds at
// most its global, its model's values, gradients and velocity on its client
// and its update on the server, and a lagging client's global and update
// may overlap the next round; the server's globals share the pool — 2·5 +
// 2·2 + 3 arrays, fewer than the clients the run samples, each of which
// kept a model of its own before.
func TestClientModelsPerRunningTrainer(t *testing.T) {
	const n, rounds, perRound = 24, 20, 2
	const bound = perRound*5 + perRound*2 + serverGlobals
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	bcfg := baselines.DefaultConfig(arch, 10)
	bcfg.Train.Epochs, bcfg.Train.BatchSize = 1, 16
	m := baselines.NewFedAvg(bcfg)
	trainer := newArrayTrainer(m.Trainer)
	m.Trainer = trainer
	_, kept := runLendingFederation(t, n, bound, ServerConfig{Rounds: rounds, ClientsPerRound: perRound,
		Aggregator: m.Aggregator, InitGlobal: m.InitGlobal}, m, nil)
	t.Logf("updates left in %d arrays", len(trainer.params))
	if trainer.notLent > 0 {
		t.Errorf("%d fedavg updates were not Lent", trainer.notLent)
	}
	if len(trainer.params) > bound {
		t.Errorf("updates left the clients in %d distinct arrays, want at most %d", len(trainer.params), bound)
	}
	if lost := notGivenBack(kept, trainer.params, trainer.globals); lost > 0 {
		t.Errorf("%d arrays the clients received or trained into are not back in param's pool", lost)
	}
}
