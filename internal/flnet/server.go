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
	"calibre/internal/param"
)

// ServerConfig configures a federated server.
type ServerConfig struct {
	fl.Federation
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
	// RoundDeadline bounds each round's collection window. 0 means wait
	// for every participant (synchronous). When the deadline expires with
	// at least Quorum updates the round closes and the missing
	// participants become stragglers, handled per Straggler; with fewer
	// updates the federation fails with fl.ErrQuorumNotMet.
	RoundDeadline time.Duration
	// OnRound observes completed rounds.
	OnRound func(fl.RoundStats)
}

// round fills the round core's configuration from the server's.
func (c *ServerConfig) round() fl.RoundConfig {
	return fl.RoundConfig{Federation: c.Federation, Rounds: c.Rounds, ClientsPerRound: c.ClientsPerRound, Seed: c.Seed,
		Aggregator: c.Aggregator, InitGlobal: c.InitGlobal, OnRound: c.OnRound}
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
	// fl.Federation.ResumeFrom for the trainer side.
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
// request before the first resolves, so req never blocks. A request's
// Global is the round's global itself, sent from its memory, which the
// round loop gives back to param's pool once the round that supersedes it
// has closed — unless that round's deadline expired: a requeued or evicted
// straggler's send may still be reading it rounds later, and the engine
// learns that a send has finished only from a reply that may never come,
// so such a global is left to the GC (fl.Aggregator).
type clientHandle struct {
	id  int
	c   *conn
	req chan *Envelope
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
	h := &clientHandle{id: env.ClientID, c: c, req: make(chan *Envelope, 1)}
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
		var req *Envelope
		select {
		case req = <-h.req:
		case <-s.done:
			return
		}
		if err := h.c.send(req); err != nil {
			s.report(event{id: h.id, err: err})
			return
		}
		// The reply's vectors must have the size of the model just sent.
		h.c.elems = len(req.Global)
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
	// Paranoia poll: joins are edge-triggered with a 1-slot channel, so a
	// burst can coalesce notifications.
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	for s.rosterSize() < s.cfg.NumClients {
		select {
		case <-ctx.Done():
			return fmt.Errorf("flnet: waiting for %d clients: %w", s.cfg.NumClients, ctx.Err())
		case <-s.joined:
		case <-poll.C:
		}
	}
	return nil
}

func (s *Server) rosterSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
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
	// trace is the seeded availability generator (nil without cfg.Availability).
	trace *fl.TraceGen
}

func newRoundEngine(s *Server) *roundEngine {
	return &roundEngine{s: s, busy: make(map[int]int), slotOf: make(map[int]int),
		trace: s.cfg.Availability.Generator(s.cfg.Seed)}
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
// contiguous (Round.Advance); the round gives their vectors back once it
// has closed.
func (e *roundEngine) Collect(ctx context.Context, r *fl.Round) error {
	s := e.s
	// Dispatch. Workers are idle (we only sample non-busy clients), so the
	// 1-slot request channels never block.
	clear(e.slotOf)
	for slot, id := range r.Participants() {
		e.slotOf[id] = slot
		if !r.Pending(slot) {
			continue
		}
		h := s.handle(id)
		if h == nil {
			return fmt.Errorf("flnet: round %d: client %d vanished before dispatch", r.Num, id)
		}
		h.req <- &Envelope{Type: MsgTrain, Round: r.Num, ClientID: id, Global: r.Global}
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
	u := ev.env.Update
	if reqRound != r.Num {
		// A straggler's stale reply drained during this round's window:
		// discard it (Late gives its vectors back), the client re-enters the
		// pool.
		r.Late(ev.id, u)
		return nil
	}
	if u == nil {
		return e.fail(r, ev.id, reqRound, "sent train-result without an update")
	}
	// Ingress validation happens in Arrive: a client shipping a wrong-sized
	// payload is evicted like any other failed participant (typed
	// fl.ErrUpdateSize in the cause) instead of panicking the aggregator; the
	// round survives whenever the configured quorum can. The update is Lent
	// (its vectors borrowed by the worker's conn): the round gives them back
	// once it has closed, or at once if it refused them. The update itself is
	// the conn's, which the next recv overwrites — after this round closed,
	// because the client is not dispatched again before then.
	if err := r.Arrive(e.slotOf[ev.id], u); err != nil {
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
			} else if u := ev.env.Update; u != nil {
				u.GiveBack()
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
	for _, id := range ids {
		h := s.handle(id)
		if h == nil {
			continue
		}
		h.req <- &Envelope{Type: MsgPersonalize, ClientID: id, Global: global}
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
