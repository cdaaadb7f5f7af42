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

// RoundConfig is the runtime-independent half of a federation's
// configuration: everything about a run that is not "how an update gets
// from a client to here". SimConfig and flnet.ServerConfig each fill one
// from their own (identically named) fields; see those for the per-field
// documentation. It is exported only because flnet must build it.
type RoundConfig struct {
	Rounds          int
	ClientsPerRound int
	Seed            int64
	Quorum          int
	Straggler       StragglerPolicy
	Trace           *TraceConfig
	Adversary       *Adversary
	Aggregator      Aggregator
	InitGlobal      func(rng *rand.Rand) (param.Vector, error)
	OnRound         func(RoundStats)
	Obs             *obs.Registry
	Recorder        *trace.Recorder
	Health          *health.Monitor
	OnAlert         func(health.Alert)
	OnCheckpoint    func(*SimState) error
	CheckpointEvery int
	ResumeFrom      *SimState
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
	if _, err := ParseStragglerPolicy(c.Straggler.String()); err != nil {
		return err
	}
	if err := c.Trace.Validate(); err != nil {
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
	cfg       RoundConfig
	runtime   string
	malicious map[int]bool
	// now is the span clock: the recorder's when one is attached (injected
	// clocks make the trace bytes deterministic), the wall clock when only
	// the metrics registry wants durations, and a constant otherwise — a
	// bare run reads no clock at all.
	now func() int64
	// normOn: the norm of each accepted update against the round's global
	// feeds the health detectors and (so post-mortem replays can run the
	// same detectors) the trace's client_update events.
	normOn              bool
	histRound, histTurn *obs.Histogram
	round               Round
	behind              writeBehind
}

// RunRounds is the round core: it runs cfg's federation over tr and
// returns the final global vector and the per-round history. Both
// runtimes are thin transports over it, so a (seed, method, config)
// triple yields the same numbers, the same RoundStats, the same
// obs.RoundSample stream and the same trace events whichever one ran it.
//
// A due checkpoint costs its round a hand-off: OnCheckpoint is called
// inside the round, before OnRound, and whatever it hands back through
// SimState.Defer runs behind the next round on one checkpoint goroutine,
// started after OnRound returns. At most one write is in flight — the next
// due checkpoint waits for it first, and so does every return from
// RunRounds, so an accepted checkpoint is durable (or its error reported)
// before the caller sees the run end and no goroutine outlives it.
func RunRounds(ctx context.Context, cfg RoundConfig, tr Transport) (global param.Vector, history []RoundStats, err error) {
	rec, reg := cfg.Recorder, cfg.Obs
	c := &roundCore{cfg: cfg, runtime: tr.Runtime(), now: func() int64 { return 0 },
		normOn:    cfg.Health != nil || rec != nil,
		malicious: make(map[int]bool),
		histRound: reg.Histogram(obs.HistRoundLatency), // nil-safe, like every obs handle
		histTurn:  reg.Histogram(obs.HistClientTurnaround)}
	switch {
	case rec != nil:
		c.now = rec.Now
	case reg != nil:
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
		global = st.Global.Clone()
		history = append(history, st.History...)
		pools = append(pools, st.EligibleCounts...)
		start = st.Round
		e := c.event(trace.KindResume, start, -1)
		e.N = tr.Population()
		rec.Emit(e)
		// Warm-start the detectors from the checkpointed history so a
		// resumed run re-derives the federation-level verdicts an
		// uninterrupted one would (re-announcing past alerts). Per-client
		// loss/norm detail is not part of SimState — replay a trace
		// through `calibre doctor` for per-client outlier windows.
		if cfg.Health != nil {
			for _, h := range st.History {
				c.diagnose(c.sample(h))
			}
		}
	}
	for round := start; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		sampled, live, pool, err := tr.Draw(rng, round, -1)
		if err != nil {
			return nil, nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
		r := &c.round
		if err := r.open(round, global, sampled, live); err != nil {
			return nil, nil, err
		}
		if err := tr.Collect(ctx, r); err != nil {
			return nil, nil, err
		}
		next, stats, err := r.close()
		if err != nil {
			return nil, nil, err
		}
		global = next
		history = append(history, stats)
		pools = append(pools, pool)
		if cfg.OnCheckpoint != nil && CheckpointDue(round+1, cfg.CheckpointEvery, cfg.Rounds) {
			n := round + 1
			st := &SimState{Round: n, Global: global, History: history[:n:n], EligibleCounts: pools[:n:n]}
			if err := c.checkpoint(round, st); err != nil {
				return nil, nil, err
			}
		}
		if cfg.OnRound != nil {
			cfg.OnRound(stats)
		}
		c.behind.start()
	}
	return global, history, nil
}

// checkpoint waits out the write in flight (back-pressure: one at a time),
// then calls the hook with st. A hook that deferred nothing has saved.
func (c *roundCore) checkpoint(round int, st *SimState) error {
	if err := c.awaitCheckpoint(); err != nil {
		return err
	}
	b := &c.behind
	st.behind = b
	t0 := c.now()
	err := c.cfg.OnCheckpoint(st)
	st.behind = nil
	if err != nil {
		b.pending = nil
		return fmt.Errorf("fl: checkpoint after round %d: %w", round, err)
	}
	e := c.event(trace.KindCheckpointSave, round, -1)
	e.Dur = e.TS - t0
	if len(b.pending) == 0 {
		c.cfg.Recorder.Emit(e)
		return nil
	}
	b.round, b.stall = round, e.Dur
	return nil
}

// awaitCheckpoint blocks until the write in flight, if any, has returned,
// and is where the loop learns its outcome: a checkpoint_save event whose
// Dur is the time the loop was blocked on that checkpoint (hand-off plus
// this wait), or the error that aborts the run.
func (c *roundCore) awaitCheckpoint() error {
	b := &c.behind
	if b.done == nil {
		return nil
	}
	t0 := c.now()
	err := <-b.done
	b.done = nil
	if err != nil {
		return fmt.Errorf("fl: checkpoint after round %d: %w", b.round, err)
	}
	e := c.event(trace.KindCheckpointSave, b.round, -1)
	e.Dur = b.stall + e.TS - t0
	c.cfg.Recorder.Emit(e)
	return nil
}

// event starts a trace event stamped with the span clock and the
// transport's runtime name; callers fill the kind-specific fields.
func (c *roundCore) event(kind trace.Kind, round, client int) trace.Event {
	return trace.Event{Kind: kind, TS: c.now(), Runtime: c.runtime, Round: round, Client: client}
}

// sample is the one RoundStats → obs.RoundSample mapping: the live round
// close adds wire bytes, duration and per-client detail on top, and the
// resume warm-start uses it as is.
func (c *roundCore) sample(h RoundStats) obs.RoundSample {
	return obs.RoundSample{
		Runtime:            c.runtime,
		Round:              h.Round,
		Participants:       len(h.Participants),
		Responders:         len(h.Participants) - len(h.Stragglers),
		Stragglers:         len(h.Stragglers),
		LateUpdates:        h.LateUpdates,
		DeadlineExpired:    h.DeadlineExpired,
		AdversarialUpdates: h.AdversarialUpdates,
		RejectedUpdates:    h.RejectedUpdates,
		MeanLoss:           h.MeanLoss,
	}
}

// diagnose streams one round through the health detectors, fans the
// alerts they raise out to the OnAlert hook and folds them into the
// metrics plane's alert counters and suspect gauge (all nil-safe).
func (c *roundCore) diagnose(sample obs.RoundSample) {
	alerts := c.cfg.Health.ObserveRound(sample)
	reg, crit := c.cfg.Obs, 0
	for _, a := range alerts {
		if a.Severity == health.SevCrit {
			crit++
		}
		if c.cfg.OnAlert != nil {
			c.cfg.OnAlert(a)
		}
	}
	if len(alerts) > 0 {
		reg.Counter(obs.CounterHealthAlerts).Add(int64(len(alerts)))
		if crit > 0 {
			reg.Counter(obs.CounterHealthCritical).Add(int64(crit))
		}
	}
	reg.Gauge(obs.GaugeHealthSuspects).Set(int64(c.cfg.Health.SuspectCount()))
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
	update      *Update // held only until the cursor streams it into the sink
	loss, norm  float64
	start, done int64 // span-clock turnaround endpoints
	wire        int64 // uplink payload bytes
}

// Round is one round's ledger: slot-indexed storage (slot i belongs to
// Participants()[i]) that a Transport feeds with outcomes and that the
// core closes into RoundStats, an obs.RoundSample and the round's trace
// events. Arrive, Begin and Pending may be called concurrently (for
// distinct slots); every other method belongs to the goroutine running
// Collect. The storage is reused from round to round.
type Round struct {
	c *roundCore
	// Num is the round index and Global the round's pre-aggregation
	// global vector (read-only, like every aggregation input).
	Num    int
	Global param.Vector

	ids       []int
	slots     []slot
	sink      UpdateSink
	cursor    int // next slot to stream into sink
	quorum    int // arrivals the round needs to close
	stats     RoundStats
	rejected  []int
	lossSum   float64
	ingested  int
	tsStart   int64
	wallStart time.Time
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
	r.cursor, r.rejected, r.lossSum, r.ingested = 0, nil, 0, 0
	r.stats = RoundStats{Round: num, Participants: sampled}
	r.wallStart = time.Now()
	e := c.event(trace.KindRoundStart, num, -1)
	e.N = len(sampled)
	r.tsStart = e.TS
	c.cfg.Recorder.Emit(e)
	reason := trace.DropStraggler
	if c.cfg.Trace != nil {
		reason = trace.DropTrace
	}
	j := 0
	for i, id := range sampled {
		if j < len(live) && live[j] == id {
			j++
		} else {
			r.drop(i, reason, "")
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
			c.cfg.Recorder.Emit(e)
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
// the cursor has streamed it into the sink — nothing retains an update
// past its round. On error the update is not accepted; whether that drops
// the slot or aborts the run is the transport's call.
func (r *Round) Arrive(slot int, u *Update) error {
	s := &r.slots[slot]
	// Account before the check: the payload crossed the uplink whether or
	// not it validates.
	s.wire = int64(8 * len(u.Params))
	if err := u.CheckSize(r.Global); err != nil {
		return err
	}
	if r.c.normOn {
		// Against the pre-aggregation global — the update the client
		// actually shipped, before the aggregate can dilute an attack. A
		// serial reduction, so identical at any worker count.
		s.norm = param.L2Dist(u.Params, r.Global)
	}
	s.done = r.c.now()
	s.update, s.loss, s.state = u, u.TrainLoss, slotArrived
	return nil
}

// drop takes slot out of the round and leaves the client_drop event that
// explains it.
func (r *Round) drop(slot int, reason trace.DropReason, note string) {
	id := r.ids[slot]
	r.slots[slot].state = slotSkipped
	r.stats.Stragglers = append(r.stats.Stragglers, id)
	if reason == trace.DropRejected {
		r.rejected = append(r.rejected, id)
		// A rejection of a client in the seeded compromise set is the
		// attack surfacing, not an accident.
		if r.c.malicious[id] {
			reason = trace.DropAdversarial
		}
	}
	e := r.c.event(trace.KindClientDrop, r.Num, id)
	e.Reason, e.Note = reason, note
	r.c.cfg.Recorder.Emit(e)
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

// Late books a stale reply from an earlier round's straggler that
// drained during this round's collection window.
func (r *Round) Late() { r.stats.LateUpdates++ }

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
// result independent of arrival timing — releasing each payload as it
// goes. Transports whose updates trickle in call it after every arrival;
// the round close always runs it to the end.
func (r *Round) Advance() error {
	for ; r.cursor < len(r.slots); r.cursor++ {
		s := &r.slots[r.cursor]
		if s.state == slotPending {
			return nil
		}
		if s.state == slotSkipped {
			continue
		}
		if err := r.sink.Ingest(s.update); err != nil {
			return fmt.Errorf("fl: aggregate round %d: %w", r.Num, err)
		}
		r.lossSum += s.loss
		r.ingested++
		s.update = nil
		e := trace.Event{Kind: trace.KindClientUpdate, TS: s.done, Runtime: r.c.runtime, Round: r.Num,
			Client: r.ids[r.cursor], Wire: "dense", Bytes: s.wire, Dur: s.done - s.start, Loss: s.loss, Norm: s.norm}
		r.c.histTurn.Observe(e.Dur)
		r.c.cfg.Recorder.Emit(e)
	}
	return nil
}

// close finishes the aggregate and is the one place a round becomes
// RoundStats, a round_end event, an obs.RoundSample and health verdicts
// — in that order, for both runtimes.
func (r *Round) close() (param.Vector, RoundStats, error) {
	c := r.c
	if err := r.Advance(); err != nil {
		return nil, r.stats, err
	}
	next, err := r.sink.Finish()
	if err != nil {
		return nil, r.stats, fmt.Errorf("fl: aggregate round %d: %w", r.Num, err)
	}
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
	e := c.event(trace.KindRoundEnd, r.Num, -1)
	e.N, e.Dur, e.Loss = r.ingested, e.TS-r.tsStart, stats.MeanLoss
	c.histRound.Observe(e.Dur)
	c.cfg.Recorder.Emit(e)
	if mon := c.cfg.Health; c.cfg.Obs != nil || mon != nil {
		sample := c.sample(*stats)
		for i := range r.slots {
			sample.UplinkWireBytes += r.slots[i].wire
		}
		sample.DurationMS = time.Since(r.wallStart).Milliseconds()
		if mon != nil {
			sample.Clients = make([]obs.ClientSample, 0, len(responders))
			for i, id := range r.ids {
				if s := &r.slots[i]; s.state == slotArrived {
					sample.Clients = append(sample.Clients, obs.ClientSample{ID: id, Loss: s.loss, Norm: s.norm})
				}
			}
			sort.Ints(r.rejected)
			sample.StragglerIDs, sample.RejectedIDs = stats.Stragglers, r.rejected
		}
		c.cfg.Obs.ObserveRound(sample)
		c.cfg.Obs.AddParticipation(responders)
		if mon != nil {
			c.diagnose(sample)
		}
	}
	return next, *stats, nil
}
