package flnet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// startServer launches srv.Run on a goroutine and returns a channel with
// its outcome.
type srvOutcome struct {
	res *Result
	err error
}

func startServer(ctx context.Context, srv *Server) <-chan srvOutcome {
	ch := make(chan srvOutcome, 1)
	go func() {
		res, err := srv.Run(ctx)
		ch <- srvOutcome{res, err}
	}()
	return ch
}

// TestAsyncBitIdenticalToSync is the tentpole determinism gate: a
// federation configured for quorum aggregation (K-of-N, per-round deadline)
// in which every client responds within the deadline must produce the
// bit-exact global vector and accuracies of the fully synchronous
// configuration.
func TestAsyncBitIdenticalToSync(t *testing.T) {
	sync := runSSLFederation(t, 2, 4, 2)
	async := runSSLFederation(t, 2, 4, 2, func(cfg *ServerConfig) {
		cfg.Quorum = 2
		cfg.RoundDeadline = 60 * time.Second
		cfg.Straggler = fl.StragglerRequeue
	})

	if len(async.Global) == 0 || len(async.Global) != len(sync.Global) {
		t.Fatalf("global lengths: async=%d sync=%d", len(async.Global), len(sync.Global))
	}
	for i := range async.Global {
		if math.Float64bits(async.Global[i]) != math.Float64bits(sync.Global[i]) {
			t.Fatalf("global[%d] differs between async and sync paths: %x vs %x",
				i, async.Global[i], sync.Global[i])
		}
	}
	if len(async.Accuracies) != len(sync.Accuracies) {
		t.Fatalf("accuracies: async=%v sync=%v", async.Accuracies, sync.Accuracies)
	}
	for id, acc := range async.Accuracies {
		if acc != sync.Accuracies[id] {
			t.Fatalf("accuracy[%d] differs: %v vs %v", id, acc, sync.Accuracies[id])
		}
	}
	for r, h := range async.History {
		if h.DeadlineExpired || len(h.Stragglers) != 0 || h.Responders != nil {
			t.Fatalf("round %d should be a clean synchronous round, got %+v", r, h)
		}
	}
}

// asyncFederation runs a small addOne federation where latency[id] delays
// client id's round-0 local update, returning server outcome, per-client
// errors and the history.
func asyncFederation(t *testing.T, cfg ServerConfig, n int, latency map[int]time.Duration, everyRound bool) (srvOutcome, []error) {
	t.Helper()
	clients := netClients(t, n)
	cfg.Addr = "127.0.0.1:0"
	cfg.NumClients = n
	cfg.Seed = 7
	cfg.Aggregator = fl.WeightedAverage{}
	cfg.InitGlobal = func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil }
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 20 * time.Second
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	ch := startServer(ctx, srv)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lat func(int) time.Duration
			if d, ok := latency[id]; ok {
				lat = func(round int) time.Duration {
					if everyRound || round == 0 {
						return d
					}
					return 0
				}
			}
			errs[id] = RunClient(ctx, ClientConfig{
				Addr:         srv.Addr().String(),
				ClientID:     id,
				Data:         clients[id],
				Trainer:      addOneTrainer{},
				Personalizer: idPersonalizer{},
				Seed:         7,
				IOTimeout:    20 * time.Second,
				SimLatency:   lat,
			})
		}(i)
	}
	out := <-ch
	wg.Wait()
	return out, errs
}

// TestDeadlineQuorumMetRequeue drives the straggler happy path: one client
// sleeps through round 0's deadline, the round closes on the 2-of-3 quorum,
// the straggler's late reply is drained and accounted, and the client is
// re-sampled in a later round and personalized at the end.
func TestDeadlineQuorumMetRequeue(t *testing.T) {
	slept := make(chan struct{}, 1)
	cfg := ServerConfig{
		Rounds: 3, ClientsPerRound: 3,
		Federation: fl.Federation{Quorum: 2, Straggler: fl.StragglerRequeue}, RoundDeadline: 300 * time.Millisecond,
		OnRound: func(stats fl.RoundStats) {
			if stats.Round == 0 {
				// Hold the round boundary until the straggler's stale
				// reply is in flight, so round 1 deterministically
				// observes it as a late update.
				select {
				case <-slept:
				case <-time.After(20 * time.Second):
				}
				time.Sleep(200 * time.Millisecond)
			}
		},
	}
	// Client 2 sleeps 1.5s in round 0 (signalling when done), well past the
	// 300ms deadline.
	done := srvOutcome{}
	var errs []error
	func() {
		clientsLat := map[int]time.Duration{2: 1500 * time.Millisecond}
		go func() {
			time.Sleep(1600 * time.Millisecond)
			slept <- struct{}{}
		}()
		done, errs = asyncFederation(t, cfg, 3, clientsLat, false)
	}()
	if done.err != nil {
		t.Fatalf("server Run: %v", done.err)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	hist := done.res.History
	if len(hist) != 3 {
		t.Fatalf("history = %d rounds", len(hist))
	}
	r0 := hist[0]
	if !r0.DeadlineExpired {
		t.Fatalf("round 0 should close by deadline: %+v", r0)
	}
	if len(r0.Stragglers) != 1 || r0.Stragglers[0] != 2 {
		t.Fatalf("round 0 stragglers = %v, want [2]", r0.Stragglers)
	}
	if len(r0.Responders) != 2 || r0.Responders[0] != 0 || r0.Responders[1] != 1 {
		t.Fatalf("round 0 responders = %v, want [0 1]", r0.Responders)
	}
	if hist[1].LateUpdates != 1 {
		t.Fatalf("round 1 late updates = %d, want 1 (straggler's stale reply)", hist[1].LateUpdates)
	}
	if len(hist[1].Participants) != 2 {
		t.Fatalf("round 1 should sample around the busy straggler, got %v", hist[1].Participants)
	}
	if len(hist[2].Participants) != 3 {
		t.Fatalf("round 2 should re-sample the requeued straggler, got %v", hist[2].Participants)
	}
	if len(done.res.Accuracies) != 3 {
		t.Fatalf("requeued straggler must be personalized: %v", done.res.Accuracies)
	}
}

// TestDeadlineQuorumNotMetFails pins the failure mode: if a round's
// deadline expires with fewer than Quorum updates the federation aborts
// with fl.ErrQuorumNotMet.
func TestDeadlineQuorumNotMetFails(t *testing.T) {
	cfg := ServerConfig{
		Rounds: 2, ClientsPerRound: 2,
		Federation: fl.Federation{Quorum: 2, Straggler: fl.StragglerRequeue}, RoundDeadline: 200 * time.Millisecond,
	}
	done, _ := asyncFederation(t, cfg, 2, map[int]time.Duration{
		0: 1500 * time.Millisecond,
		1: 1500 * time.Millisecond,
	}, false)
	if done.err == nil {
		t.Fatal("deadline with zero updates should fail the federation")
	}
	if !errors.Is(done.err, fl.ErrQuorumNotMet) {
		t.Fatalf("err = %v, want fl.ErrQuorumNotMet", done.err)
	}
}

// TestStragglerDropEvicts verifies the drop policy: a deadline straggler is
// evicted, never re-sampled, and absent from the personalization results.
func TestStragglerDropEvicts(t *testing.T) {
	cfg := ServerConfig{
		Rounds: 3, ClientsPerRound: 3,
		Federation: fl.Federation{Quorum: 2, Straggler: fl.StragglerDrop}, RoundDeadline: 300 * time.Millisecond,
	}
	done, errs := asyncFederation(t, cfg, 3, map[int]time.Duration{2: 2 * time.Second}, true)
	if done.err != nil {
		t.Fatalf("server Run: %v", done.err)
	}
	for id, err := range errs[:2] {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	if errs[2] == nil {
		t.Fatal("dropped straggler should see its connection fail")
	}
	hist := done.res.History
	if len(hist[0].Stragglers) != 1 || hist[0].Stragglers[0] != 2 {
		t.Fatalf("round 0 stragglers = %v, want [2]", hist[0].Stragglers)
	}
	for _, h := range hist[1:] {
		for _, id := range h.Participants {
			if id == 2 {
				t.Fatalf("round %d re-sampled the evicted client: %v", h.Round, h.Participants)
			}
		}
	}
	if len(done.res.Accuracies) != 2 {
		t.Fatalf("accuracies = %v, want clients 0 and 1 only", done.res.Accuracies)
	}
	if _, ok := done.res.Accuracies[2]; ok {
		t.Fatal("evicted client must not be personalized")
	}
}

// TestLateJoinerEntersFederation: a client that joins after training begins
// becomes sampleable at the next round boundary and takes part in the
// personalization stage.
func TestLateJoinerEntersFederation(t *testing.T) {
	clients := netClients(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var srv *Server
	var wg sync.WaitGroup
	errs := make([]error, 3)
	runOne := func(id int) {
		defer wg.Done()
		errs[id] = RunClient(ctx, ClientConfig{
			Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
			Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
			Seed: 7, IOTimeout: 20 * time.Second,
		})
	}
	var joinOnce sync.Once
	srvCfg := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 4, ClientsPerRound: 3, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		IOTimeout:  20 * time.Second,
		OnRound: func(stats fl.RoundStats) {
			// After round 0, admit a third client and block the round
			// boundary until its join lands, so round 1 sees it.
			joinOnce.Do(func() {
				wg.Add(1)
				go runOne(2)
				deadline := time.Now().Add(20 * time.Second)
				for len(srv.Joined()) < 3 && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
			})
		},
	}
	var err error
	srv, err = NewServer(srvCfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ch := startServer(ctx, srv)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go runOne(i)
	}
	out := <-ch
	wg.Wait()
	if out.err != nil {
		t.Fatalf("server Run: %v", out.err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	if len(out.res.History[0].Participants) != 2 {
		t.Fatalf("round 0 participants = %v, want the two founders", out.res.History[0].Participants)
	}
	if got := out.res.History[1].Participants; len(got) != 3 {
		t.Fatalf("round 1 should include the late joiner, got %v", got)
	}
	if len(out.res.Accuracies) != 3 {
		t.Fatalf("late joiner must be personalized: %v", out.res.Accuracies)
	}
}

// rawClient speaks the wire protocol by hand so tests can misbehave in
// controlled ways: conn's message codec over a socket the test owns (and
// can write arbitrary bytes to, or close, at any point).
type rawClient struct {
	conn net.Conn
	c    *conn
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writePreamble(conn, 5*time.Second); err != nil {
		t.Fatalf("raw preamble write: %v", err)
	}
	if err := readPreamble(conn, 5*time.Second); err != nil {
		t.Fatalf("raw preamble read: %v", err)
	}
	return &rawClient{conn: conn, c: newConn(conn, 10*time.Second, MaxFrameBytes)}
}

func (r *rawClient) send(t *testing.T, e *Envelope) {
	t.Helper()
	if err := r.c.send(e); err != nil {
		t.Fatalf("raw send: %v", err)
	}
}

func (r *rawClient) recv(t *testing.T) *Envelope {
	t.Helper()
	e, err := r.c.recv()
	if err != nil {
		t.Fatalf("raw recv: %v", err)
	}
	return e
}

// TestTruncatedJoinStreamTolerated: connections that send a truncated
// message (or garbage) during the handshake are dropped without harming the
// federation, which completes with the well-behaved client.
func TestTruncatedJoinStreamTolerated(t *testing.T) {
	clients := netClients(t, 1)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1, Seed: 3,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 2), nil },
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch := startServer(ctx, srv)

	// A truncated stream: a few bytes, then a hard close mid-preamble.
	junk, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial junk: %v", err)
	}
	if _, err := junk.Write([]byte{0x1f, 0xff, 0x83, 0x03}); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	_ = junk.Close()

	// A well-formed message of the wrong type is also rejected.
	wrong := dialRaw(t, srv.Addr().String())
	wrong.send(t, &Envelope{Type: MsgTrainResult, ClientID: 9})
	_ = wrong.conn.Close()

	cerr := RunClient(ctx, ClientConfig{
		Addr: srv.Addr().String(), ClientID: 0, Data: clients[0],
		Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
		Seed: 3, IOTimeout: 10 * time.Second,
	})
	out := <-ch
	if out.err != nil {
		t.Fatalf("server should survive junk handshakes, got %v", out.err)
	}
	if cerr != nil {
		t.Fatalf("client: %v", cerr)
	}
	if len(out.res.Accuracies) != 1 {
		t.Fatalf("accuracies = %v", out.res.Accuracies)
	}
}

// TestDisconnectMidRoundSync: in the synchronous discipline (no quorum) a
// participant vanishing mid-round is fatal, preserving the historical
// all-or-nothing contract.
func TestDisconnectMidRoundSync(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1, Seed: 3,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 2), nil },
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch := startServer(ctx, srv)

	rc := dialRaw(t, srv.Addr().String())
	rc.send(t, &Envelope{Type: MsgJoin, ClientID: 0})
	if ack := rc.recv(t); ack.Type != MsgJoinAck {
		t.Fatalf("ack = %v", ack.Type)
	}
	if train := rc.recv(t); train.Type != MsgTrain {
		t.Fatalf("train = %v", train.Type)
	}
	_ = rc.conn.Close() // vanish mid-round

	out := <-ch
	if out.err == nil {
		t.Fatal("synchronous round should fail when its only participant disconnects")
	}
	if !errors.Is(out.err, fl.ErrQuorumNotMet) {
		t.Fatalf("err = %v, want fl.ErrQuorumNotMet", out.err)
	}
}

// TestDisconnectMidRoundQuorumTolerated: with K-of-N aggregation a
// participant's mid-round crash just evicts it; the survivors close the
// round and finish the federation.
func TestDisconnectMidRoundQuorumTolerated(t *testing.T) {
	clients := netClients(t, 3)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 3, Rounds: 2, ClientsPerRound: 3, Seed: 3,
		Federation: fl.Federation{Quorum: 2, Straggler: fl.StragglerRequeue}, RoundDeadline: 10 * time.Second,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 2), nil },
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch := startServer(ctx, srv)

	// Client 2 is a hand-rolled deserter: it joins, accepts the round-0
	// training request, then drops the connection.
	deserter := make(chan struct{})
	go func() {
		defer close(deserter)
		rc := dialRaw(t, srv.Addr().String())
		rc.send(t, &Envelope{Type: MsgJoin, ClientID: 2})
		rc.recv(t) // ack
		rc.recv(t) // train
		_ = rc.conn.Close()
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
				Seed: 3, IOTimeout: 10 * time.Second,
			})
		}(i)
	}
	out := <-ch
	wg.Wait()
	<-deserter
	if out.err != nil {
		t.Fatalf("quorum federation should survive a mid-round crash, got %v", out.err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	r0 := out.res.History[0]
	if len(r0.Stragglers) != 1 || r0.Stragglers[0] != 2 {
		t.Fatalf("round 0 stragglers = %v, want the deserter [2]", r0.Stragglers)
	}
	if len(out.res.Accuracies) != 2 {
		t.Fatalf("accuracies = %v, want the two survivors", out.res.Accuracies)
	}
	if len(out.res.History[1].Participants) != 2 {
		t.Fatalf("round 1 participants = %v, want the two survivors", out.res.History[1].Participants)
	}
}

// TestServerConfigValidatesAsyncKnobs covers the server-only config
// surface; TestRuntimesRefuseTheSameFederation covers the shared knobs.
func TestServerConfigValidatesAsyncKnobs(t *testing.T) {
	good := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 2,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return []float64{0}, nil },
	}
	bad := good
	bad.RoundDeadline = -time.Second
	if _, err := NewServer(bad); err == nil {
		t.Fatal("negative deadline accepted")
	}
	ok := good
	ok.Quorum = 1
	ok.RoundDeadline = time.Second
	ok.Straggler = fl.StragglerDrop
	srv, err := NewServer(ok)
	if err != nil {
		t.Fatalf("valid async config rejected: %v", err)
	}
	_ = srv.listener.Close()
}
