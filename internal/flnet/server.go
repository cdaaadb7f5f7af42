package flnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"calibre/internal/fl"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/trace"
)

// ServerConfig configures a federated server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":9000" or "127.0.0.1:0".
	Addr string
	// NumClients is how many clients must join before training starts.
	// More clients may keep joining after the first round begins (late
	// joiners); they enter the sampling pool at the next round boundary.
	NumClients int
	// Rounds and ClientsPerRound mirror the simulator settings.
	Rounds          int
	ClientsPerRound int
	Seed            int64
	// Aggregator merges updates; InitGlobal produces the first vector.
	Aggregator fl.Aggregator
	InitGlobal func(rng *rand.Rand) (param.Vector, error)
	// IOTimeout bounds each network operation (default 2 minutes).
	IOTimeout time.Duration

	// Quorum is the minimum number of client updates needed to close a
	// round at its deadline (K in K-of-N aggregation). 0 means every
	// participant must reply — the fully synchronous discipline.
	Quorum int
	// RoundDeadline bounds each round's collection window. 0 means wait
	// for every participant (synchronous). When the deadline expires with
	// at least Quorum updates the round closes and the missing
	// participants become stragglers, handled per Straggler; with fewer
	// updates the federation fails with fl.ErrQuorumNotMet.
	RoundDeadline time.Duration
	// Straggler is the fate of participants that miss the deadline:
	// requeue (default) keeps them in the federation, drop evicts them.
	Straggler fl.StragglerPolicy

	// Trace, when set, applies a seeded availability trace server-side:
	// each sampled participant is dropped from the round pre-dispatch with
	// probability Trace.DropProb(round, id), becoming a straggler (evicted
	// under StragglerDrop). Exactly one RNG draw is consumed per
	// participant and a round left below max(1, Quorum) available clients
	// fails with fl.ErrQuorumNotMet — no rescue draws — so a resumed
	// server can replay the stream from recorded pool sizes alone.
	Trace *fl.TraceConfig
	// Adversary is accounting-only: it names the seeded compromise trace
	// the federation's clients were launched under (same Seed, population
	// NumClients) so RoundStats.AdversarialUpdates and the obs plane can
	// attribute ingested updates. It does not alter server behavior —
	// defense lives in the Aggregator.
	Adversary *fl.Adversary

	// OnRound observes completed rounds.
	OnRound func(fl.RoundStats)
	// Obs, if non-nil, receives live observability for every completed
	// round: an obs.RoundSample carrying the straggler/quorum accounting
	// plus the uplink payload bytes received, and per-client participation.
	// Nil-safe and side-effect-free on training.
	Obs *obs.Registry
	// Health, if non-nil, streams every completed round through the
	// anomaly detectors: per-client losses and update norms (measured
	// against the round's pre-aggregation global) feed the norm-z and
	// fairness rules, ingress rejections and stragglers feed the
	// per-client health scores, and the federation loss series feeds the
	// trend detectors. Purely observational — verdicts never alter
	// training — and warm-started from ResumeFrom's history on resume.
	Health *health.Monitor
	// OnAlert receives every alert the monitor raises, in round order,
	// from the round engine goroutine. Ignored when Health is nil.
	OnAlert func(health.Alert)
	// Recorder, if non-nil, receives the flight-recorder event stream:
	// round spans, per-client dispatch/update/drop events carrying client
	// IDs and payload bytes, checkpoint and resume marks. Every event is
	// emitted from the single-goroutine round engine in state-machine
	// order, so even an injected (non-thread-safe) trace.Clock is safe
	// here. Purely observational: a traced federation is bit-identical to a
	// bare one (pinned by TestTraceDoesNotPerturbNetRun).
	Recorder *trace.Recorder

	// OnCheckpoint, if set, receives the fl.SimState (an immutable view)
	// after every CheckpointEvery-th completed round and after the final
	// round, before OnRound fires. A hook that saves inline has the round
	// persisted when it returns; store.SaveHook hands its write back to the
	// round loop (fl.SimState.Defer), which runs it behind the next round
	// and waits for it at the next due checkpoint and before Run returns —
	// a crash can lose exactly the version in flight. A checkpoint error,
	// from the hook or its deferred write, aborts the federation. The state
	// records the per-round sampling-pool sizes, which is what lets a
	// restarted server replay its RNG draws exactly even though join
	// timing and straggler business shaped the pool.
	OnCheckpoint func(*fl.SimState) error
	// CheckpointEvery is the round stride between checkpoints; ≤0 means
	// every round. Ignored unless OnCheckpoint is set.
	CheckpointEvery int
	// ResumeFrom, if non-nil, continues a checkpointed federation: once
	// NumClients have (re)joined, the round loop starts at
	// ResumeFrom.Round with the snapshot's global vector and history. A
	// federation in which every participant responds resumes
	// bit-identically to one that was never interrupted — provided the
	// method is stateless across rounds. An Aggregator declaring
	// fl.Stateful is refused at validation (fl.ErrStatefulResume);
	// trainer-side state lives in the client processes where this server
	// cannot see it, so the CLI layer (`calibre serve`), which builds the
	// full method, refuses stateful methods before configuring resume.
	ResumeFrom *fl.SimState
}

// round fills the round core's configuration from the server's.
func (c *ServerConfig) round() fl.RoundConfig {
	return fl.RoundConfig{
		Rounds: c.Rounds, ClientsPerRound: c.ClientsPerRound, Seed: c.Seed,
		Quorum: c.Quorum, Straggler: c.Straggler, Trace: c.Trace, Adversary: c.Adversary,
		Aggregator: c.Aggregator, InitGlobal: c.InitGlobal,
		OnRound: c.OnRound, Obs: c.Obs, Recorder: c.Recorder, Health: c.Health, OnAlert: c.OnAlert,
		OnCheckpoint: c.OnCheckpoint, CheckpointEvery: c.CheckpointEvery, ResumeFrom: c.ResumeFrom,
	}
}

func (c *ServerConfig) validate() error {
	switch {
	case c.NumClients < 1:
		return errors.New("flnet: server needs ≥1 client")
	case c.Aggregator == nil:
		return errors.New("flnet: missing aggregator")
	case c.InitGlobal == nil:
		return errors.New("flnet: missing InitGlobal")
	case c.RoundDeadline < 0:
		return errors.New("flnet: round deadline must be ≥0")
	}
	// Only the aggregator's cross-round state is visible here; see
	// ResumeFrom for the trainer side.
	return c.round().Validate(c.Aggregator)
}

// Result is the outcome of a completed federation.
type Result struct {
	Global  param.Vector
	History []fl.RoundStats
	// Accuracies maps client ID to its personalized local test accuracy.
	// Clients evicted during training (StragglerDrop, connection failures)
	// are absent.
	Accuracies map[int]float64
}

// clientHandle is the engine's view of one connected client. A dedicated
// worker goroutine owns the connection: the engine pushes one request at a
// time into req and the worker delivers the matching reply (or a transport
// error) to the server's event stream. The engine never sends a second
// request before the first resolves, so req never blocks.
type clientHandle struct {
	id  int
	c   *conn
	req chan request
}

// request is one engine-to-client message: the envelope, and the global
// it carries as the frame every recipient shares.
type request struct {
	env    *Envelope
	global *sharedFrame
}

// post hands h's worker env with f as its Global.
func (f *sharedFrame) post(h *clientHandle, env *Envelope) {
	f.refs.Add(1)
	h.req <- request{env: env, global: f}
}

// event is what a client worker reports back to the round engine: a reply
// envelope, or a terminal transport error.
type event struct {
	id  int
	env *Envelope
	err error
}

// Server orchestrates federated rounds over TCP as an asynchronous round
// state machine; see doc.go for the protocol and round lifecycle.
type Server struct {
	cfg      ServerConfig
	listener net.Listener

	mu      sync.Mutex
	clients map[int]*clientHandle // roster: joined and not evicted
	closing bool                  // set by closeAll: no further joins

	events chan event    // replies and failures from client workers
	joined chan struct{} // edge-triggered join notification (cap 1)
	done   chan struct{} // closed when Run returns; releases workers
}

// NewServer validates the config and starts listening (so callers can read
// Addr before clients connect).
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 2 * time.Minute
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("flnet: listen %s: %w", cfg.Addr, err)
	}
	return &Server{
		cfg:      cfg,
		listener: ln,
		clients:  make(map[int]*clientHandle),
		events:   make(chan event, 64),
		joined:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

// Joined returns the IDs currently in the roster, sorted. It is safe to
// call from OnRound callbacks and tests while the federation runs.
func (s *Server) Joined() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Run accepts clients, executes all rounds, runs the personalization stage
// on every surviving client, shuts clients down, and returns the results.
func (s *Server) Run(ctx context.Context) (*Result, error) {
	defer func() {
		s.listener.Close()
		s.closeAll()
		close(s.done)
	}()

	go s.acceptLoop()
	if err := s.awaitQuorumJoin(ctx); err != nil {
		return nil, err
	}

	eng := newRoundEngine(s)
	global, history, err := fl.RunRounds(ctx, s.cfg.round(), eng)
	if err != nil {
		return nil, err
	}
	if err := eng.drainStragglers(ctx); err != nil {
		return nil, err
	}
	accs, err := eng.personalizeAll(ctx, global)
	if err != nil {
		return nil, err
	}
	s.shutdownAll()
	return &Result{Global: global, History: history, Accuracies: accs}, nil
}

// acceptLoop admits clients for the whole federation lifetime, so late
// joiners can enter mid-training. It exits when the listener closes.
func (s *Server) acceptLoop() {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			return
		}
		go s.handleJoin(raw)
	}
}

// handleJoin performs the preamble exchange and join handshake on one
// fresh connection. Incompatible protocol versions, garbage connections
// (truncated or non-join first messages) and duplicate client IDs are
// rejected without disturbing the rest of the federation.
func (s *Server) handleJoin(raw net.Conn) {
	if err := writePreamble(raw, s.cfg.IOTimeout); err != nil {
		_ = raw.Close()
		return
	}
	if err := readPreamble(raw, s.cfg.IOTimeout); err != nil {
		// An incompatible or non-calibre peer: nothing more can be said on
		// a wire whose protocol it does not speak.
		_ = raw.Close()
		return
	}
	// No frame is legal on this connection until a request has told the
	// worker the model size.
	c := newConn(raw, s.cfg.IOTimeout, 0)
	env, err := c.recv()
	if err != nil || env.Type != MsgJoin {
		_ = c.close()
		return
	}
	h := &clientHandle{id: env.ClientID, c: c, req: make(chan request, 1)}
	s.mu.Lock()
	if s.closing {
		// The federation is tearing down; a join registered now would
		// leave an orphaned connection nobody closes.
		s.mu.Unlock()
		_ = c.close()
		return
	}
	if _, dup := s.clients[env.ClientID]; dup {
		s.mu.Unlock()
		_ = c.send(&Envelope{Type: MsgError, Err: fmt.Sprintf("duplicate client id %d", env.ClientID)})
		_ = c.close()
		return
	}
	s.clients[env.ClientID] = h
	s.mu.Unlock()
	if err := c.send(&Envelope{Type: MsgJoinAck, ClientID: env.ClientID}); err != nil {
		s.evict(env.ClientID)
		// The engine may already have dispatched to this roster entry (it
		// becomes eligible the moment it is inserted); with no worker ever
		// started, surface the failure so the round doesn't wait forever.
		s.report(event{id: env.ClientID, err: err})
		return
	}
	go s.serveClient(h)
	select {
	case s.joined <- struct{}{}:
	default:
	}
}

// serveClient is a client's worker goroutine: it owns all I/O on the
// connection, turning each engine request into exactly one send and (except
// for shutdown) one receive, delivered to the event stream.
func (s *Server) serveClient(h *clientHandle) {
	for {
		var req request
		select {
		case req = <-h.req:
		case <-s.done:
			return
		}
		frame := req.global.buf
		err := h.c.sendShared(req.env, frame)
		req.global.refs.Add(-1) // the engine may overwrite the buffer from here on
		if err != nil {
			s.report(event{id: h.id, err: err})
			return
		}
		// The reply's vectors must have the size of the model just sent.
		h.c.elems = (len(frame) - frameHeader) / 8
		resp, err := h.c.recv()
		if err != nil {
			s.report(event{id: h.id, err: err})
			return
		}
		s.report(event{id: h.id, env: resp})
	}
}

func (s *Server) report(ev event) {
	select {
	case s.events <- ev:
	case <-s.done:
	}
}

// awaitQuorumJoin blocks until NumClients have joined (or ctx expires).
func (s *Server) awaitQuorumJoin(ctx context.Context) error {
	for {
		if len(s.Joined()) >= s.cfg.NumClients {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("flnet: waiting for %d clients: %w", s.cfg.NumClients, ctx.Err())
		case <-s.joined:
		case <-time.After(50 * time.Millisecond):
			// Paranoia poll: joins are edge-triggered with a 1-slot
			// channel, so a burst can coalesce notifications.
		}
	}
}

func (s *Server) handle(id int) *clientHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients[id]
}

// evict removes a client from the roster and closes its connection. Its
// worker (if mid-receive) will surface a transport error event, which the
// engine ignores for evicted IDs.
func (s *Server) evict(id int) {
	s.mu.Lock()
	h := s.clients[id]
	delete(s.clients, id)
	s.mu.Unlock()
	if h != nil {
		_ = h.c.close()
	}
}

// shutdownAll writes shutdown directly on each connection. It runs only
// after the personalization stage resolved every in-flight request, so all
// workers are idle in <-req and no concurrent send can interleave.
func (s *Server) shutdownAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.clients {
		_ = h.c.send(&Envelope{Type: MsgShutdown})
	}
}

func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	for id, h := range s.clients {
		_ = h.c.close()
		delete(s.clients, id)
	}
}

// roundEngine is the asynchronous round state machine: the round core's
// TCP Transport. It is single-goroutine (driven by Server.Run through
// fl.RunRounds); all concurrency lives in the per-client workers feeding
// s.events.
type roundEngine struct {
	s *Server
	// busy maps a client ID to the round of its in-flight train request.
	// Busy clients are not eligible for sampling; a requeued straggler
	// stays busy until its stale reply drains.
	busy map[int]int
	// slotOf maps the current round's participants to their ledger slots.
	slotOf map[int]int
	// frame is the last global framed for the wire (see share), shares how
	// many were.
	frame  *sharedFrame
	shares int
	// trace is the seeded availability generator (nil without cfg.Trace).
	trace *fl.TraceGen
}

func newRoundEngine(s *Server) *roundEngine {
	return &roundEngine{s: s, busy: make(map[int]int), slotOf: make(map[int]int),
		trace: s.cfg.Trace.Generator(s.cfg.Seed)}
}

// share frames global for the wire: once per round (and once for the
// personalization stage) whatever the number of recipients, into the
// buffer the previous round used.
func (e *roundEngine) share(global param.Vector) *sharedFrame {
	f := e.frame
	if f == nil || f.refs.Load() != 0 {
		// A send of the previous frame is still in flight (a straggler on a
		// slow socket): leave that buffer to it.
		f = &sharedFrame{}
		e.frame = f
	}
	f.buf = appendFrame(f.buf[:0], global)
	e.shares++
	return f
}

func (e *roundEngine) Runtime() string { return "server" }
func (e *roundEngine) Population() int { return e.s.cfg.NumClients }

// evict is the engine's one eviction path: the client leaves the roster
// (closing its connection) and releases its busy entry with it.
func (e *roundEngine) evict(id int) {
	delete(e.busy, id)
	e.s.evict(id)
}

// Draw samples round's participants from the roster clients with no
// in-flight request and applies the availability trace pre-dispatch:
// exactly one seeded draw per participant in slot order, never a rescue
// draw, so a resumed server can burn the identical stream knowing only the
// recorded pool sizes — which is what replayPool ≥ 0 does, with slot
// indices standing in for the (unknowable, unneeded) client IDs. A
// dropped participant becomes a straggler without ever seeing the request
// and is evicted under StragglerDrop.
func (e *roundEngine) Draw(rng *rand.Rand, round, replayPool int) (sampled, live []int, pool int, err error) {
	replay := replayPool >= 0
	pool = replayPool
	var eligible []int // sorted roster IDs with no in-flight request
	if !replay {
		roster := e.s.Joined()
		eligible = roster[:0]
		for _, id := range roster {
			if _, b := e.busy[id]; !b {
				eligible = append(eligible, id)
			}
		}
		if pool = len(eligible); pool == 0 {
			return nil, nil, 0, errors.New("flnet: no eligible clients")
		}
	}
	sampled = fl.UniformSampler{}.Sample(rng, pool, e.s.cfg.ClientsPerRound)
	if !replay {
		for i, p := range sampled {
			sampled[i] = eligible[p]
		}
	}
	live = sampled
	if e.trace != nil {
		live = make([]int, 0, len(sampled))
		for _, id := range sampled {
			if u := rng.Float64(); replay || u >= e.trace.DropProb(round, id) {
				live = append(live, id)
			} else if e.s.cfg.Straggler == fl.StragglerDrop {
				e.evict(id)
			}
		}
	}
	return sampled, live, pool, nil
}

// Collect dispatches the round's train requests and feeds the ledger
// until the round closes: either every participant replied, or the
// deadline expired with at least a quorum of updates. Updates stream into
// the aggregate in canonical participant order as they become
// contiguous (Round.Advance), so payloads are not buffered beyond
// reordering needs.
func (e *roundEngine) Collect(ctx context.Context, r *fl.Round) error {
	s := e.s
	// Dispatch. Workers are idle (we only sample non-busy clients), so the
	// 1-slot request channels never block.
	clear(e.slotOf)
	global := e.share(r.Global)
	for slot, id := range r.Participants() {
		e.slotOf[id] = slot
		if !r.Pending(slot) {
			continue
		}
		h := s.handle(id)
		if h == nil {
			return fmt.Errorf("flnet: round %d: client %d vanished before dispatch", r.Num, id)
		}
		global.post(h, &Envelope{Type: MsgTrain, Round: r.Num, ClientID: id})
		e.busy[id] = r.Num
	}
	var deadlineC <-chan time.Time
	if s.cfg.RoundDeadline > 0 {
		timer := time.NewTimer(s.cfg.RoundDeadline)
		defer timer.Stop()
		deadlineC = timer.C
	}
	for r.Open() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("flnet: round %d: %w", r.Num, ctx.Err())
		case ev := <-s.events:
			if err := e.onEvent(r, ev); err != nil {
				return err
			}
		case <-deadlineC:
			// Quorum met: everyone unresolved becomes a straggler. Under
			// requeue the client stays busy until its stale reply drains
			// through a later round's collection window.
			expired, err := r.Expire()
			if err != nil {
				return err
			}
			if s.cfg.Straggler == fl.StragglerDrop {
				for _, id := range expired {
					e.evict(id)
				}
			}
		}
	}
	return nil
}

// onEvent books one client worker's report against the round. A non-nil
// return is fatal to the federation.
func (e *roundEngine) onEvent(r *fl.Round, ev event) error {
	reqRound, wasBusy := e.busy[ev.id]
	switch {
	case !wasBusy:
		return nil // event from an already-evicted client
	case ev.err != nil:
		return e.fail(r, ev.id, reqRound, fmt.Sprintf("failed (%v)", ev.err))
	case ev.env.Type == MsgError:
		return e.fail(r, ev.id, reqRound, fmt.Sprintf("reported %q", ev.env.Err))
	case ev.env.Type != MsgTrainResult:
		return e.fail(r, ev.id, reqRound, fmt.Sprintf("sent %s, want train-result", ev.env.Type))
	}
	delete(e.busy, ev.id) // idle again, whatever round it was for
	if reqRound != r.Num {
		// A straggler's stale reply drained during this round's window:
		// discard it, the client re-enters the pool.
		r.Late()
		return nil
	}
	if ev.env.Update == nil {
		return e.fail(r, ev.id, reqRound, "sent train-result without an update")
	}
	// Ingress validation happens in Arrive: a client shipping a wrong-sized
	// payload is evicted like any other failed participant (typed
	// fl.ErrUpdateSize in the cause) instead of panicking the aggregator; the
	// round survives whenever the configured quorum can. The update's
	// vectors live in the client's connection buffers, which the next recv
	// on that connection overwrites — after this round closed, because the
	// client is not dispatched again before then.
	if err := r.Arrive(e.slotOf[ev.id], ev.env.Update); err != nil {
		return e.fail(r, ev.id, reqRound, fmt.Sprintf("rejected (%v)", err))
	}
	return r.Advance()
}

// fail handles every way a client fails out of a round (transport error,
// client-reported error, protocol violation, rejected payload): it is
// evicted, and — when the failure belongs to this round rather than to a
// requeued straggler's stale request — its slot is dropped.
func (e *roundEngine) fail(r *fl.Round, id, reqRound int, cause string) error {
	e.evict(id)
	slot, inRound := e.slotOf[id]
	if !inRound || reqRound != r.Num || !r.Pending(slot) {
		return nil // stale misbehavior: evicted, round unaffected
	}
	return r.Drop(slot, cause)
}

// drainStragglers waits for requeued stragglers' stale replies (bounded by
// the connection IOTimeout) so the personalization stage starts with a
// quiet wire. Clients that never drain are evicted.
func (e *roundEngine) drainStragglers(ctx context.Context) error {
	s := e.s
	if len(e.busy) == 0 {
		return nil
	}
	grace := time.NewTimer(s.cfg.IOTimeout + 5*time.Second)
	defer grace.Stop()
	for len(e.busy) > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("flnet: draining stragglers: %w", ctx.Err())
		case ev := <-s.events:
			if _, wasBusy := e.busy[ev.id]; !wasBusy {
				continue
			}
			delete(e.busy, ev.id)
			if ev.err != nil {
				e.evict(ev.id)
			}
		case <-grace.C:
			for id := range e.busy {
				e.evict(id)
			}
		}
	}
	return nil
}

// personalizeAll runs the personalization stage on every surviving client.
func (e *roundEngine) personalizeAll(ctx context.Context, global param.Vector) (map[int]float64, error) {
	s := e.s
	ids := s.Joined()
	accs := make(map[int]float64, len(ids))
	outstanding := make(map[int]bool, len(ids))
	frame := e.share(global)
	for _, id := range ids {
		h := s.handle(id)
		if h == nil {
			continue
		}
		frame.post(h, &Envelope{Type: MsgPersonalize, ClientID: id})
		outstanding[id] = true
	}
	for len(outstanding) > 0 {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("flnet: personalize: %w", ctx.Err())
		case ev := <-s.events:
			if !outstanding[ev.id] {
				continue
			}
			delete(outstanding, ev.id)
			if ev.err != nil {
				return nil, fmt.Errorf("flnet: personalize client %d: %w", ev.id, ev.err)
			}
			switch ev.env.Type {
			case MsgPersonalizeResult:
				accs[ev.id] = ev.env.Accuracy
			case MsgError:
				return nil, fmt.Errorf("flnet: personalize client %d: %s", ev.id, ev.env.Err)
			default:
				return nil, fmt.Errorf("flnet: client %d sent %s, want personalize-result", ev.id, ev.env.Type)
			}
		}
	}
	return accs, nil
}
