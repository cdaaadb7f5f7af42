package fl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/trace"
)

// Federation is what a federation runs under whichever runtime carries
// it: the scenario's knobs, the observability planes and the checkpoint
// hooks. SimConfig, flnet.ServerConfig and RoundConfig embed it, so each
// field is declared, documented and validated (RoundConfig.Validate) once;
// where the simulator and the TCP server treat a field differently, its
// comment says how.
type Federation struct {
	// Quorum is K in K-of-N aggregation. The simulator keeps at least
	// max(1, Quorum) of a round's sampled clients through its dropout
	// draws. The server closes a round at RoundDeadline once it holds
	// Quorum updates; 0 there means every participant must reply — the
	// fully synchronous discipline. A round that cannot keep the floor
	// fails with ErrQuorumNotMet.
	Quorum int
	// Straggler is the fate of a dropped participant: StragglerRequeue
	// (the default) drops it for the round only, StragglerDrop evicts it
	// from the federation for the rest of the run.
	Straggler StragglerPolicy
	// Availability, when set, drops each sampled participant from round r
	// with the seeded probability Availability.DropProb(r, id) (a flat
	// rate, diurnal sine, flash-crowd burst or correlated markov churn).
	// The simulator keeps its quorum floor with rescue draws. The server
	// makes exactly one draw per participant and no rescue draws: a round
	// left below max(1, Quorum) available clients fails, so a resumed
	// server replays the stream from recorded pool sizes alone.
	Availability *TraceConfig
	// Adversary, when set, places a seeded fraction of the client
	// population under adversarial control; the compromised set and every
	// hostile payload are pure functions of the seed, so hostile runs
	// replay and resume bit-identically, and RoundStats.AdversarialUpdates
	// and RejectedUpdates account for the attack. The simulator wraps the
	// trainer with it. The server only uses it for that accounting — the
	// federation's clients were launched under the same trace (same seed,
	// population NumClients) — and defense lives in the Aggregator.
	Adversary *Adversary

	// Obs, Recorder, Health and OnAlert are the observability planes. The
	// round core emits trace events and nothing else; RunRounds folds them
	// into these four through one health.Fold — the fold `calibre doctor
	// replay` runs over a recorded trace. Every plane is nil-safe and
	// purely observational: an instrumented run is bit-identical to a
	// bare one.
	//
	// Obs receives each completed round's obs.RoundSample (responders,
	// stragglers, uplink bytes), per-client participation and the latency
	// histograms.
	Obs *obs.Registry
	// Recorder receives the flight-recorder event stream: round spans,
	// per-client dispatch/update/drop/late events with payload bytes and
	// turnaround, checkpoint and resume marks, and each round's phases.
	// Events are emitted from the round loop in canonical order and
	// workers only record timestamps, so a non-thread-safe injected
	// trace.Clock needs simulator Parallelism 1; the server's round
	// engine is one goroutine.
	Recorder *trace.Recorder
	// Health streams every completed round through the detector layer:
	// loss divergence/plateau, fairness-gap drift, per-client update-norm
	// outliers (measured against the round's global), quorum regression.
	// With Health set the round samples carry per-client detail, in Obs's
	// ring too. On resume the monitor is warm-started from ResumeFrom's
	// history (federation-level series only: replay a trace through
	// `calibre doctor` for per-client windows).
	Health *health.Monitor
	// OnAlert receives every alert Health raises, from the round loop in
	// round order. Ignored when Health is nil.
	OnAlert func(health.Alert)

	// OnCheckpoint, if set, receives the SimState (an immutable view whose
	// Global is lent until the hook, or the write it defers, returns)
	// after every CheckpointEvery-th completed round and after the final
	// round, before OnRound for the same round. A hook that saves inline
	// has persisted the round when it returns; a hook that hands its write
	// back (SimState.Defer, as store.SaveHook does) has it persisted by
	// the next due checkpoint and, whatever ends the run, before the run
	// returns. A checkpoint error, from the hook or its deferred write,
	// aborts the run: durability was requested.
	OnCheckpoint func(*SimState) error
	// CheckpointEvery is the round stride between checkpoints; ≤0 means
	// every round. Ignored unless OnCheckpoint is set.
	CheckpointEvery int
	// ResumeFrom, if non-nil, continues a checkpointed federation from
	// ResumeFrom.Round with its global vector and history, after replaying
	// the completed rounds' RNG draws (the server's from the recorded pool
	// sizes), so the continuation is bit-identical to a run that never
	// stopped — on the server, when every participant responds. The
	// configuration must match the checkpointed run's (store fingerprints
	// guard this). The simulator restores the method's client table from
	// ResumeFrom.Rows; the server cannot see one, as it lives in the
	// client processes, so experiments.AttachCheckpoints refuses a server
	// resume of a method with one. A method component keeping cross-round
	// state anywhere else declares it via Stateful and is refused with
	// ErrStatefulResume.
	ResumeFrom *SimState
}

// RoundConfig is the round core's configuration: the Federation plus the
// run's size and the method parts it aggregates with. SimConfig and
// flnet.ServerConfig each fill one from their own fields. It is exported
// only because flnet must build it.
type RoundConfig struct {
	Federation
	Rounds          int
	ClientsPerRound int
	Seed            int64
	Aggregator      Aggregator
	InitGlobal      func(rng *rand.Rand) (param.Vector, error)
	OnRound         func(RoundStats)

	// clients is the method's client table (Method.Clients), which the
	// simulator hands in: checkpoints copy it and resume restores it.
	clients *ClientTable
}

// Validate checks the shared half of a federation's configuration.
// parts are the method components (trainer, aggregator, personalizer) the
// calling runtime can see: resuming is refused with ErrStatefulResume
// when any of them carries cross-round state.
func (c RoundConfig) Validate(parts ...any) error {
	switch {
	case c.Rounds < 1:
		return fmt.Errorf("fl: rounds must be ≥1, got %d", c.Rounds)
	case c.ClientsPerRound < 1:
		return fmt.Errorf("fl: clientsPerRound must be ≥1, got %d", c.ClientsPerRound)
	case c.Quorum < 0:
		return fmt.Errorf("fl: quorum must be ≥0, got %d", c.Quorum)
	case c.Quorum > c.ClientsPerRound:
		return fmt.Errorf("fl: quorum %d exceeds clientsPerRound %d", c.Quorum, c.ClientsPerRound)
	}
	// Krum scores each update against its nearest neighbours and needs F+3
	// of them; a smaller round could only fail its aggregate.
	if k, ok := c.Aggregator.(Krum); ok && c.ClientsPerRound < k.F+3 {
		return fmt.Errorf("fl: aggregator %s needs ≥ %d clients per round, got %d", k, k.F+3, c.ClientsPerRound)
	}
	if _, err := ParseStragglerPolicy(c.Straggler.String()); err != nil {
		return err
	}
	if err := c.Availability.Validate(); err != nil {
		return err
	}
	if err := c.Adversary.Validate(); err != nil {
		return err
	}
	if c.ResumeFrom != nil {
		if p := statefulPart(parts...); p != nil {
			return fmt.Errorf("fl: resume: %T: %w", p, ErrStatefulResume)
		}
		if err := c.ResumeFrom.Validate(c.Rounds); err != nil {
			return fmt.Errorf("fl: resume: %w", err)
		}
	}
	return nil
}

// Transport is the part of a federation that differs between runtimes:
// how a round's participants are drawn from the population the runtime
// keeps, and how their updates reach the round ledger. Everything else —
// lifecycle, resume, accounting, aggregation, observability, checkpoints
// — is RunRounds.
type Transport interface {
	// Runtime names the transport in samples and events ("sim", "server").
	Runtime() string
	// Population is the configured client population, the n the seeded
	// compromise set (Adversary.Malicious) is drawn over.
	Population() int
	// Draw consumes round's master-RNG draws and returns the sampled
	// participants in canonical slot order, the order-preserving subset
	// still live after the availability draws, and the size of the pool
	// sampled from. replayPool < 0 draws a live round. replayPool ≥ 0
	// replays a completed round of a resumed run against its recorded
	// pool size: the identical draws must be consumed (and population
	// state advanced) but nothing else may happen, and only err is used.
	// The two runtimes' RNG-stream contracts differ (rescue draws vs.
	// exactly one draw per participant) and are pinned by their resume
	// tests, which is why drawing is not shared.
	Draw(rng *rand.Rand, round, replayPool int) (sampled, live []int, pool int, err error)
	// Collect obtains an update for every pending slot of r and reports
	// each outcome to r (Arrive, Drop, Late, Expire), returning once no
	// slot is pending. A non-nil error aborts the federation.
	Collect(ctx context.Context, r *Round) error
}

// roundCore is the per-federation state of RunRounds.
type roundCore struct {
	cfg     RoundConfig
	runtime string
	// planes folds every event the core emits into cfg's observability
	// planes: the core's only observability output.
	planes    health.Fold
	malicious map[int]bool
	// now is the span clock: the recorder's when one is attached (injected
	// clocks make the trace bytes deterministic), the wall clock when only
	// the metrics registry wants durations, and a constant otherwise — a
	// bare run reads no clock at all.
	now    func() int64
	round  Round
	behind writeBehind
	ph     phaseClock
}

// phaseClock lays one round-loop iteration's phase events (trace.Phases)
// end to end in the order they are emitted: draw, collect, ingest,
// reduce, planes, checkpoint, hooks, checkpoint_wait. tile is where the
// next phase begins; unplaced is the time of the pieces timed inside other
// phases and not yet laid down — ingest's until the round closes, then
// checkpoint_wait's — so tile+unplaced is the span clock's last reading.
// Each phase's Dur is the time it took; the tiling decides only its TS.
// Phases are laid only with a Recorder attached, their only reader.
type phaseClock struct {
	tile, unplaced int64
}

// RunRounds is the round core: it runs cfg's federation over tr and
// returns the final global vector and the per-round history. Both
// runtimes are thin transports over it, so a (seed, method, config)
// triple yields the same numbers, the same RoundStats and the same trace
// events — and so the same obs.RoundSample stream, which the planes fold
// from them — whichever one ran it.
//
// A due checkpoint costs its round a hand-off: OnCheckpoint is called
// inside the round, before OnRound, and whatever it hands back through
// SimState.Defer runs behind the next round on one checkpoint goroutine,
// started after OnRound returns. At most one write is in flight — the next
// due checkpoint waits for it first, and so does every return from
// RunRounds, so an accepted checkpoint is durable (or its error reported)
// before the caller sees the run end and no goroutine outlives it.
//
// Every global a round produces is the core's (Aggregator) and goes back
// to param's pool after its last reader (retire); the caller gets a copy of
// the final one, which goes back too, so a run that ends gives back every
// global it borrowed and the next run in the process borrows the same
// vectors instead of allocating as many anew at whatever point its
// trainers first find the pool short.
//
// With a Recorder attached, each iteration of the round loop also emits
// its phases (trace.Phases): where the round's time went, laid end to end
// so that they sum to the iteration (see phaseClock).
func RunRounds(ctx context.Context, cfg RoundConfig, tr Transport) (global param.Vector, history []RoundStats, err error) {
	c := &roundCore{cfg: cfg, runtime: tr.Runtime(), now: func() int64 { return 0 }, malicious: make(map[int]bool),
		planes: health.Fold{Recorder: cfg.Recorder, Obs: cfg.Obs, Monitor: cfg.Health, OnAlert: cfg.OnAlert}}
	switch {
	case cfg.Recorder != nil:
		c.now = cfg.Recorder.Now
	case cfg.Obs != nil:
		clockStart := time.Now()
		c.now = func() int64 { return time.Since(clockStart).Nanoseconds() }
	}
	for _, id := range cfg.Adversary.Malicious(cfg.Seed, tr.Population()) {
		c.malicious[id] = true
	}
	c.round.c = c
	defer func() {
		if werr := c.awaitCheckpoint(); werr != nil {
			global, history, err = nil, nil, errors.Join(err, werr)
		}
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	if global, err = cfg.InitGlobal(rng); err != nil {
		return nil, nil, fmt.Errorf("fl: init global: %w", err)
	}
	history = make([]RoundStats, 0, cfg.Rounds)
	// pools[r] is the size of round r's sampling pool — the replay data a
	// resumed run needs, carried into every checkpoint. Like history it is
	// sized once: a checkpoint shares both as prefixes.
	pools := make([]int, 0, cfg.Rounds)
	start := 0
	if st := cfg.ResumeFrom; st != nil {
		if len(st.Global) != len(global) {
			return nil, nil, fmt.Errorf("fl: resume: checkpoint has %d params, InitGlobal produces %d", len(st.Global), len(global))
		}
		// Replay the completed rounds' draws through the transport's own
		// draw function, so the master RNG and the sampleable population
		// are exactly where the checkpointed run left them.
		for r := 0; r < st.Round; r++ {
			if _, _, _, err := tr.Draw(rng, r, st.EligibleCounts[r]); err != nil {
				return nil, nil, fmt.Errorf("fl: resume: round %d: %w", r, err)
			}
		}
		if len(st.Rows) > 0 && cfg.clients == nil {
			return nil, nil, fmt.Errorf("fl: resume: checkpoint has %d client rows, the method keeps none", len(st.Rows))
		}
		if cfg.clients != nil {
			cfg.clients.restore(st.Rows)
		}
		global = st.Global.Clone()
		history = append(history, st.History...)
		pools = append(pools, st.EligibleCounts...)
		start = st.Round
		e := c.event(trace.KindResume, start, -1)
		e.N = tr.Population()
		c.planes.Emit(e)
		// Warm-start the detectors from the checkpointed history so a
		// resumed run re-derives the federation-level verdicts an
		// uninterrupted one would (re-announcing past alerts). Per-client
		// loss/norm detail is not part of SimState — replay a trace
		// through `calibre doctor` for per-client outlier windows.
		c.planes.Warm(c.historyEvents(st.History))
	}
	for round := start; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		c.ph.tile = c.tick() // the previous iteration left nothing unplaced
		sampled, live, pool, err := tr.Draw(rng, round, -1)
		if err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		r := &c.round
		if err := r.open(round, global, sampled, live); err != nil {
			return nil, nil, err
		}
		c.lap(trace.KindPhaseDraw, round)
		if err := tr.Collect(ctx, r); err != nil {
			return nil, nil, err
		}
		c.lap(trace.KindPhaseCollect, round)
		next, stats, err := r.close()
		if err != nil {
			return nil, nil, err
		}
		c.lap(trace.KindPhasePlanes, round)
		if round == cfg.Rounds-1 {
			// The caller keeps the final global.
			global = next.Clone()
			param.GiveBack(next)
		} else {
			global = next
		}
		history = append(history, stats)
		pools = append(pools, pool)
		if cfg.OnCheckpoint != nil && CheckpointDue(round+1, cfg.CheckpointEvery, cfg.Rounds) {
			n := round + 1
			st := &SimState{Round: n, Global: global, History: history[:n:n], EligibleCounts: pools[:n:n]}
			if err := c.checkpoint(round, st); err != nil {
				return nil, nil, err
			}
		}
		c.lap(trace.KindPhaseCheckpoint, round)
		if cfg.OnRound != nil {
			cfg.OnRound(stats)
		}
		c.behind.start()
		c.lap(trace.KindPhaseHooks, round)
		if round == cfg.Rounds-1 {
			// The end-of-run drain, inside the final round so that its
			// checkpoint_wait takes it in.
			if err := c.awaitCheckpoint(); err != nil {
				return nil, nil, err
			}
		}
		c.place(trace.KindPhaseCheckpointWait, round)
	}
	return global, history, nil
}

// lap ends round's phase kind at the span clock's reading: its Dur is the
// time since the previous phase ended, less the pieces timed inside it.
func (c *roundCore) lap(kind trace.Kind, round int) {
	if c.planes.Recorder != nil {
		c.tilePhase(kind, round, c.now()-c.ph.tile-c.ph.unplaced)
	}
}

// place lays down round's phase kind, which ran in the pieces not yet
// placed.
func (c *roundCore) place(kind trace.Kind, round int) {
	if c.planes.Recorder != nil {
		c.tilePhase(kind, round, c.ph.unplaced)
		c.ph.unplaced = 0
	}
}

// piece ends a piece of a phase that runs inside others, begun when the
// span clock read since.
func (c *roundCore) piece(since int64) {
	if c.planes.Recorder != nil {
		c.ph.unplaced += c.now() - since
	}
}

// tick reads the span clock for a phase boundary: 0, without a read, when
// no phases are recorded — like lap, place and piece, which then do
// nothing.
func (c *roundCore) tick() int64 {
	if c.planes.Recorder == nil {
		return 0
	}
	return c.now()
}

// tilePhase emits round's phase kind at the end of the tiling and extends
// the tiling by dur.
func (c *roundCore) tilePhase(kind trace.Kind, round int, dur int64) {
	c.planes.Emit(trace.Event{Kind: kind, TS: c.ph.tile, Runtime: c.runtime, Round: round, Client: -1, Dur: dur})
	c.ph.tile += dur
}

// checkpoint waits out the write in flight (back-pressure: one at a time),
// then calls the hook with st. A hook that deferred nothing has saved.
func (c *roundCore) checkpoint(round int, st *SimState) error {
	if err := c.awaitCheckpoint(); err != nil {
		return err
	}
	b := &c.behind
	st.behind = b
	// The rows are copied once the previous write is done, so at most one
	// copy is pending, and inside the hand-off's time: the copy grows with
	// the clients the table has seen times the row size.
	st.Rows = c.cfg.clients.snapshot()
	err := c.cfg.OnCheckpoint(st)
	st.behind = nil
	if err != nil {
		b.pending = nil
		return fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
	}
	if len(b.pending) == 0 {
		c.planes.Emit(c.event(trace.KindCheckpointSave, round, -1))
		return nil
	}
	b.round = round
	return nil
}

// retire gives back the global round r superseded, now that r's sink has
// finished reading it, unless it has a reader the round does not see
// through: the method's InitGlobal vector, round 0's global unless the
// run resumed, is not the core's; after an
// expired deadline a requeued or evicted straggler's send may read it
// rounds later, and the engine learns that a send has finished only from
// a reply that may never come; the write-behind save in flight may still
// read it, and then awaitCheckpoint gives it back once the save returns.
func (c *roundCore) retire(r *Round) {
	if (r.Num == 0 && c.cfg.ResumeFrom == nil) || r.stats.DeadlineExpired {
		return
	}
	if b := &c.behind; b.done != nil && b.round == r.Num-1 {
		b.retired = r.Global
		return
	}
	param.GiveBack(r.Global)
}

// awaitCheckpoint blocks until the write in flight, if any, has returned,
// and is where the loop learns its outcome: a checkpoint_save event, or
// the error that aborts the run. The time blocked is a piece of the
// iteration's phase_checkpoint_wait.
func (c *roundCore) awaitCheckpoint() error {
	b := &c.behind
	if b.done == nil {
		return nil
	}
	t0 := c.tick()
	err := <-b.done
	c.piece(t0)
	b.done = nil
	if b.retired != nil {
		param.GiveBack(b.retired)
		b.retired = nil
	}
	if err != nil {
		return fmt.Errorf("fl: checkpoint after round %d: %w", b.round, err)
	}
	c.planes.Emit(c.event(trace.KindCheckpointSave, b.round, -1))
	return nil
}

// event starts a trace event stamped with the span clock and the
// transport's runtime name; callers fill the kind-specific fields.
func (c *roundCore) event(kind trace.Kind, round, client int) trace.Event {
	return trace.Event{Kind: kind, TS: c.now(), Runtime: c.runtime, Round: round, Client: client}
}

// historyEvents is the event stream a resumed run's checkpointed rounds
// imply, as far as the health detectors read it: each round's span with
// its participant and responder counts and mean loss, and — when the
// round's deadline expired — the straggler drop after a dispatch that
// tells the fold so.
func (c *roundCore) historyEvents(history []RoundStats) (evs []trace.Event) {
	for _, h := range history {
		e := trace.Event{Kind: trace.KindRoundStart, Runtime: c.runtime, Round: h.Round, Client: -1, N: len(h.Participants)}
		evs = append(evs, e)
		if h.DeadlineExpired {
			e.Kind = trace.KindClientDispatch
			evs = append(evs, e)
			e.Kind, e.Reason = trace.KindClientDrop, trace.DropStraggler
			evs = append(evs, e)
		}
		e.Kind, e.Reason, e.N, e.Loss = trace.KindRoundEnd, "", len(h.Participants)-len(h.Stragglers), h.MeanLoss
		evs = append(evs, e)
	}
	return evs
}

type slotState uint8

const (
	slotPending slotState = iota // dispatched, no outcome yet
	slotArrived                  // update resolved, awaiting or past the cursor
	slotSkipped                  // contributes nothing to the round
)

// slot is one participant's entry in the round ledger.
type slot struct {
	state       slotState
	update      *Update // held until the round closes, which gives a Lent one back
	loss, norm  float64
	start, done int64 // span-clock turnaround endpoints
	wire        int64 // uplink payload bytes
}

// Round is one round's ledger: slot-indexed storage (slot i belongs to
// Participants()[i]) that a Transport feeds with outcomes and that the
// core closes into RoundStats and the round's trace events. Arrive, Begin
// and Pending may be called concurrently (for distinct slots); every
// other method belongs to the goroutine running Collect. The storage is
// reused from round to round.
type Round struct {
	c *roundCore
	// Num is the round index and Global the round's pre-aggregation
	// global vector (read-only, like every aggregation input).
	Num    int
	Global param.Vector

	ids      []int
	slots    []slot
	sink     UpdateSink
	cursor   int // next slot to stream into sink
	quorum   int // arrivals the round needs to close
	stats    RoundStats
	lossSum  float64
	ingested int
	tsStart  int64
}

// open resets the ledger for a new round, emits its opening events and
// books the participants the availability draw already took out.
func (r *Round) open(num int, global param.Vector, sampled, live []int) error {
	c := r.c
	quorum := c.cfg.Quorum
	if quorum == 0 {
		quorum = len(live) // fully synchronous: every dispatched client must reply
	}
	if cap(r.slots) < len(sampled) {
		r.slots = make([]slot, len(sampled))
	}
	r.slots = r.slots[:len(sampled)]
	clear(r.slots)
	r.Num, r.Global, r.ids, r.quorum = num, global, sampled, quorum
	r.sink = NewRoundSink(c.cfg.Aggregator, global)
	r.cursor, r.lossSum, r.ingested = 0, 0, 0
	r.stats = RoundStats{Round: num, Participants: sampled}
	e := c.event(trace.KindRoundStart, num, -1)
	e.N = len(sampled)
	r.tsStart = e.TS
	c.planes.Emit(e)
	j := 0
	for i, id := range sampled {
		if j < len(live) && live[j] == id {
			j++
		} else {
			r.drop(i, trace.DropTrace, "")
		}
	}
	// Guard the K-of-N contract loudly: a round that cannot keep Quorum
	// (or, after availability drops, a single) participant fails rather
	// than silently aggregating fewer updates.
	if floor := max(1, c.cfg.Quorum); len(sampled) < c.cfg.Quorum || len(live) < floor {
		return fmt.Errorf("fl: round %d: %d of %d sampled participants available, need %d: %w",
			num, len(live), len(sampled), floor, ErrQuorumNotMet)
	}
	for i, id := range sampled {
		if r.slots[i].state == slotPending {
			e := c.event(trace.KindClientDispatch, num, id)
			r.slots[i].start = e.TS
			c.planes.Emit(e)
		}
	}
	return nil
}

// Participants returns the round's sampled clients in canonical slot
// order; slot i is Participants()[i].
func (r *Round) Participants() []int { return r.ids }

// Pending reports whether slot still awaits an outcome.
func (r *Round) Pending(slot int) bool { return r.slots[slot].state == slotPending }

// Open reports whether any slot is still pending.
func (r *Round) Open() bool { return r.count(slotPending) > 0 }

func (r *Round) count(st slotState) int {
	n := 0
	for i := range r.slots {
		if r.slots[i].state == st {
			n++
		}
	}
	return n
}

// Begin restarts slot's turnaround clock, for a transport that queues
// work behind a parallelism bound and should not bill the wait.
func (r *Round) Begin(slot int) { r.slots[slot].start = r.c.now() }

// Arrive books the update that came back for slot: uplink accounting,
// ingress validation (Update.CheckSize), the update norm when someone
// wants it, and the turnaround. The slot borrows u and its payload until
// the round closes — nothing retains an update past its round — and the
// round is the last consumer of a Lent one: it gives its vectors back once
// the sink has finished (close), or at once if it refuses the update. On
// error the update is not accepted; whether that drops the slot or aborts
// the run is the transport's call.
func (r *Round) Arrive(slot int, u *Update) error {
	s := &r.slots[slot]
	// Account before the check: the payload crossed the uplink whether or
	// not it validates.
	s.wire = int64(8 * len(u.Params))
	if err := u.CheckSize(r.Global); err != nil {
		u.GiveBack()
		return err
	}
	if p := &r.c.planes; p.Monitor != nil || p.Recorder != nil {
		// The update's norm feeds the health detectors and (so post-mortem
		// replays can run the same detectors) the trace's client_update
		// events. Against the pre-aggregation global — the update the
		// client actually shipped, before the aggregate can dilute an
		// attack. A serial reduction, so identical at any worker count.
		s.norm = param.L2Dist(u.Params, r.Global)
	}
	s.done = r.c.now()
	s.update, s.loss, s.state = u, u.TrainLoss, slotArrived
	return nil
}

// drop takes slot out of the round and leaves the client_drop event that
// explains it, billing any upload Arrive refused.
func (r *Round) drop(slot int, reason trace.DropReason, note string) {
	id := r.ids[slot]
	r.slots[slot].state = slotSkipped
	r.stats.Stragglers = append(r.stats.Stragglers, id)
	// A rejection of a client in the seeded compromise set is the attack
	// surfacing, not an accident.
	if reason == trace.DropRejected && r.c.malicious[id] {
		reason = trace.DropAdversarial
	}
	e := r.c.event(trace.KindClientDrop, r.Num, id)
	e.Reason, e.Note, e.Bytes = reason, note, r.slots[slot].wire
	r.c.planes.Emit(e)
}

// Drop takes a pending slot out of the round because its client failed,
// misbehaved or shipped a payload Arrive rejected (note says which). The
// round fails with ErrQuorumNotMet once its quorum became unreachable.
func (r *Round) Drop(slot int, note string) error {
	r.drop(slot, trace.DropRejected, note)
	if left := len(r.slots) - r.count(slotSkipped); left < r.quorum {
		return fmt.Errorf("fl: round %d: client %d %s; need %d of %d participants: %w",
			r.Num, r.ids[slot], note, r.quorum, len(r.slots), ErrQuorumNotMet)
	}
	return r.Advance()
}

// Late books a stale reply from client, an earlier round's straggler
// that drained during this round's collection window, and gives back the
// vectors of its update, if it carried a Lent one: nothing reads it.
func (r *Round) Late(client int, u *Update) {
	r.stats.LateUpdates++
	r.c.planes.Emit(r.c.event(trace.KindClientLate, r.Num, client))
	if u != nil {
		u.GiveBack()
	}
}

// Expire closes the collection window at the round deadline: with the
// quorum met, every pending slot becomes a straggler and their client
// IDs are returned (requeue or evict is the transport's policy);
// otherwise the round fails with ErrQuorumNotMet.
func (r *Round) Expire() ([]int, error) {
	if n := r.count(slotArrived); n < r.quorum {
		return nil, fmt.Errorf("fl: round %d: deadline with %d/%d updates: %w", r.Num, n, r.quorum, ErrQuorumNotMet)
	}
	r.stats.DeadlineExpired = true
	var expired []int
	for i := range r.slots {
		if r.slots[i].state == slotPending {
			r.drop(i, trace.DropStraggler, "")
			expired = append(expired, r.ids[i])
		}
	}
	return expired, nil
}

// Advance streams every resolved update that has become contiguous into
// the aggregate, in canonical slot order — the order that makes the
// result independent of arrival timing. Transports whose updates trickle
// in call it after every arrival; the round close always runs it to the
// end.
func (r *Round) Advance() error {
	for ; r.cursor < len(r.slots); r.cursor++ {
		s := &r.slots[r.cursor]
		if s.state == slotPending {
			return nil
		}
		if s.state == slotSkipped {
			continue
		}
		t0 := r.c.tick()
		err := r.sink.Ingest(s.update)
		r.c.piece(t0)
		if err != nil {
			return fmt.Errorf("fl: aggregate round %d: %w", r.Num, err)
		}
		r.lossSum += s.loss
		r.ingested++
		r.c.planes.Emit(trace.Event{Kind: trace.KindClientUpdate, TS: s.done, Runtime: r.c.runtime, Round: r.Num,
			Client: r.ids[r.cursor], Wire: "dense", Bytes: s.wire, Dur: s.done - s.start, Loss: s.loss, Norm: s.norm})
	}
	return nil
}

// close finishes the aggregate and is the one place a round becomes
// RoundStats and a round_end event — for both runtimes.
func (r *Round) close() (param.Vector, RoundStats, error) {
	c := r.c
	if err := r.Advance(); err != nil {
		return nil, r.stats, err
	}
	next, err := r.sink.Finish()
	if err != nil {
		return nil, r.stats, fmt.Errorf("fl: aggregate round %d: %w", r.Num, err)
	}
	// The aggregate is a vector of its own (Aggregator): no one reads the
	// round's payloads any more, nor, but for the readers retire names, its
	// global.
	for i := range r.slots {
		if u := r.slots[i].update; u != nil {
			u.GiveBack()
		}
	}
	c.retire(r)
	stats := &r.stats
	responders := r.ids
	if stats.Stragglers != nil {
		responders = make([]int, 0, r.ingested)
		for i, id := range r.ids {
			if r.slots[i].state == slotArrived {
				responders = append(responders, id)
			}
		}
		stats.Responders = responders
		sort.Ints(stats.Stragglers)
	}
	for _, id := range responders {
		if c.malicious[id] {
			stats.AdversarialUpdates++
		}
	}
	if robust, ok := c.cfg.Aggregator.(RobustAggregator); ok {
		stats.RejectedUpdates = robust.Rejected(r.ingested)
	}
	if r.ingested > 0 {
		stats.MeanLoss = r.lossSum / float64(r.ingested)
	}
	c.place(trace.KindPhaseIngest, r.Num)
	c.lap(trace.KindPhaseReduce, r.Num)
	e := c.event(trace.KindRoundEnd, r.Num, -1)
	e.N, e.Dur, e.Loss = r.ingested, e.TS-r.tsStart, stats.MeanLoss
	e.Adversarial, e.Rejected = stats.AdversarialUpdates, stats.RejectedUpdates
	c.planes.Emit(e)
	return next, *stats, nil
}
