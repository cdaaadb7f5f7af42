package trace

import (
	"slices"
	"sync"
	"time"
)

// Kind names a flight-recorder event. The set is closed: every producer in
// the runtimes emits one of these, and the offline tooling (`calibre trace`)
// switches on them.
type Kind string

const (
	// KindRoundStart / KindRoundEnd bracket one federated round's span.
	// round_start carries N = sampled participants; round_end carries
	// N = aggregated responders, Dur = the span, Loss = the round's mean
	// local training loss, Adversarial = aggregated updates from the
	// seeded compromise set and Rejected = updates the robust aggregator
	// excluded (both absent from traces written before they existed).
	KindRoundStart Kind = "round_start"
	KindRoundEnd   Kind = "round_end"
	// KindClientDispatch marks the moment a participant's train request is
	// handed off (flnet: written to the wire; sim: local update started).
	KindClientDispatch Kind = "client_dispatch"
	// KindClientUpdate closes a client span: the participant's update was
	// accepted. Dur is the dispatch→accept turnaround, Wire/Bytes the
	// uplink encoding and payload cost, Loss the client's local training
	// loss. The round core stamps Wire "dense", the only uplink form;
	// "delta" appears only in traces from builds that still had the
	// XOR-delta uplink and in bench/'s frozen probe.
	KindClientUpdate Kind = "client_update"
	// KindClientDrop records a participant that contributed nothing to the
	// round, attributed by Reason. Bytes is the upload an ingress
	// rejection still billed to the uplink (zero when nothing arrived).
	KindClientDrop Kind = "client_drop"
	// KindClientLate records a stale reply from an earlier round's
	// straggler that drained during this round's collection window: it is
	// counted, never aggregated.
	KindClientLate Kind = "client_late"
	// KindCheckpointSave / KindResume are the durability boundary.
	// checkpoint_save is emitted when the round loop learns that Round's
	// snapshot is persisted — straight after the hook for one that saved
	// inline, at the next due checkpoint's wait or the end-of-run drain for
	// a write-behind save. It carries no Dur: what checkpoints cost the loop
	// is the phase_checkpoint and phase_checkpoint_wait events. (Traces
	// written before the phases existed carry the loop's stall as its
	// dur_ns.) resume marks a run continuing from a snapshot (Round = the
	// first round the continuation executes).
	KindCheckpointSave Kind = "checkpoint_save"
	KindResume         Kind = "resume"
	// KindCellStart / KindCellEnd bracket one sweep cell's span; Cell
	// carries the cell key, and every event a cell's simulation emits is
	// stamped with the same key so cell spans nest round spans even when
	// cells run concurrently. cell_end carries Note = the cell status.
	KindCellStart Kind = "cell_start"
	KindCellEnd   Kind = "cell_end"

	// The phase kinds split one iteration of the round loop into what its
	// time went to, all timed on the loop's goroutine. Each is emitted once
	// per round, Dur its length (zero when the phase did nothing that
	// round) and TS its start in the round's tiling: the phases laid end to
	// end in emission order — draw, collect, ingest, reduce, planes,
	// checkpoint, hooks, checkpoint_wait — from the draw's start, so they
	// sum to the iteration. ingest, timed inside collect and reduce, and
	// checkpoint_wait, timed inside checkpoint and (the final round) in the
	// end-of-run drain after hooks, are taken out of the phases they ran
	// in. The round core records them only when a Recorder is attached.
	//
	//   - phase_draw: sampling the participants and opening the round
	//     (emitted after round_start, whose supersede rule would otherwise
	//     drop it).
	//   - phase_collect: obtaining the updates, less the ingest inside it —
	//     local training on the simulator, wire and remote training on the
	//     server.
	//   - phase_ingest: streaming the accepted updates into the aggregate.
	//   - phase_reduce: finishing the aggregate, giving the round's payloads
	//     back, the round's statistics.
	//   - phase_planes: round_end's trip through the observability planes.
	//   - phase_checkpoint: a due checkpoint's hand-off (the rows snapshot
	//     and the hook call).
	//   - phase_checkpoint_wait: the loop blocked on an earlier write-behind
	//     save, and in the final round on the end-of-run drain.
	//   - phase_hooks: OnRound and starting the write-behind save.
	KindPhaseDraw           Kind = "phase_draw"
	KindPhaseCollect        Kind = "phase_collect"
	KindPhaseIngest         Kind = "phase_ingest"
	KindPhaseReduce         Kind = "phase_reduce"
	KindPhasePlanes         Kind = "phase_planes"
	KindPhaseCheckpoint     Kind = "phase_checkpoint"
	KindPhaseCheckpointWait Kind = "phase_checkpoint_wait"
	KindPhaseHooks          Kind = "phase_hooks"
)

// Phases lists the phase kinds in table order.
var Phases = [...]Kind{KindPhaseDraw, KindPhaseCollect, KindPhaseIngest, KindPhaseReduce,
	KindPhasePlanes, KindPhaseCheckpoint, KindPhaseCheckpointWait, KindPhaseHooks}

// Phase returns k's index in Phases, or -1 when k is not a phase kind.
func (k Kind) Phase() int { return slices.Index(Phases[:], k) }

// DropReason attributes a client_drop event.
type DropReason string

const (
	// DropTrace: a seeded availability trace — a flat rate among them —
	// made the client unavailable before it could train (fl.TraceConfig).
	DropTrace DropReason = "trace"
	// DropStraggler: the client missed the round deadline under quorum
	// aggregation. Traces written before the flat rate became a trace
	// kind also label its pre-dispatch drops so.
	DropStraggler DropReason = "straggler"
	// DropRejected: the runtime rejected the client at ingress (wrong-size
	// or corrupt payload, protocol violation, transport failure).
	DropRejected DropReason = "rejected"
	// DropAdversarial: an ingress rejection whose sender is in the seeded
	// compromised set — the same failure as DropRejected, attributed to
	// the attack.
	DropAdversarial DropReason = "adversarial"
)

// Event is one flight-recorder record. Round and Client are -1 when the
// event is not scoped to a round or client; every other field is optional
// and omitted from the encoding when zero. TS is a monotonic timestamp in
// nanoseconds from the recorder's clock, so spans within one trace are
// directly comparable; with an injected clock the whole encoding is
// deterministic (see Config.Clock).
type Event struct {
	Kind    Kind       `json:"t"`
	TS      int64      `json:"ts"`
	Runtime string     `json:"rt,omitempty"`   // "sim" | "server" | "sweep"
	Cell    string     `json:"cell,omitempty"` // sweep cell key
	Round   int        `json:"round"`
	Client  int        `json:"client"`
	Reason  DropReason `json:"reason,omitempty"`
	Wire    string     `json:"wire,omitempty"` // "dense"; "delta" in older traces (see KindClientUpdate)
	Bytes   int64      `json:"bytes,omitempty"`
	Dur     int64      `json:"dur_ns,omitempty"`
	N       int        `json:"n,omitempty"`
	// Adversarial and Rejected are round_end's attack accounting (see
	// KindRoundEnd).
	Adversarial int     `json:"adv,omitempty"`
	Rejected    int     `json:"rejected,omitempty"`
	Loss        float64 `json:"loss,omitempty"`
	// Norm is the L2 norm of the client's update against the round's
	// pre-aggregation global model. The round core stamps it on
	// client_update events when a health.Monitor or a Recorder is
	// attached, which is what lets `calibre doctor` replay a trace
	// through the update-norm detectors.
	Norm float64 `json:"norm,omitempty"`
	Note string  `json:"note,omitempty"`
}

// Clock returns a monotonic timestamp in nanoseconds. The default clock
// measures nanoseconds since the recorder was built (small, monotonic,
// process-local numbers); tests inject a deterministic clock so two runs
// of the same federation emit byte-identical traces.
type Clock func() int64

// StepClock returns a deterministic clock that starts at 0 and advances
// by step on every reading. It is safe only for single-goroutine use —
// exactly the regime the byte-identity tests pin (Parallelism 1).
func StepClock(step int64) Clock {
	var now int64
	return func() int64 {
		now += step
		return now - step
	}
}

// defaultRing bounds the in-memory event buffer between sink writes. The
// ring amortizes sink writes: events accumulate in place and are encoded
// and written as one batch when the ring fills (or on Flush/Close), so no
// event is ever dropped and file order always equals emission order.
const defaultRing = 1024

// Config tunes a Recorder.
type Config struct {
	// Clock supplies timestamps; nil means monotonic nanoseconds since
	// the recorder was built.
	Clock Clock
}

// Recorder is the flight recorder: a bounded ring of Events draining into
// an append-only Sink as length-prefixed JSONL. All methods are safe for
// concurrent use and safe on a nil receiver (recording becomes a no-op),
// so runtimes instrument unconditionally — the same contract as
// obs.Registry. The hot path is allocation-disciplined: the ring and the
// encode scratch are preallocated and reused, and one Emit costs a short
// critical section plus, every defaultRing events, one batched sink write.
type Recorder struct {
	c    *core
	cell string
}

// core is the state shared by a Recorder and its WithCell views.
type core struct {
	clock Clock
	sink  Sink

	mu   sync.Mutex
	ring []Event
	n    int
	scratch
	closed bool
	err    error // first sink error, sticky
}

// scratch holds the reused encode buffers.
type scratch struct {
	batch []byte // one flush's encoded bytes
	rec   []byte // one record's JSON body
}

// New builds a Recorder draining into sink. A nil sink yields a nil
// recorder (everything no-ops), so callers can thread an optional sink
// without branching.
func New(sink Sink, cfg Config) *Recorder {
	if sink == nil {
		return nil
	}
	clock := cfg.Clock
	if clock == nil {
		start := time.Now()
		clock = func() int64 { return time.Since(start).Nanoseconds() }
	}
	return &Recorder{c: &core{clock: clock, sink: sink, ring: make([]Event, defaultRing)}}
}

// WithCell returns a view of the recorder that stamps cell onto every
// event emitted through it (unless the event already carries one). Views
// share the ring and sink; the sweep scheduler hands each cell's
// simulation its own view so cell spans nest round spans unambiguously
// even with concurrent cells. Nil-safe.
func (r *Recorder) WithCell(cell string) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{c: r.c, cell: cell}
}

// Now reads the recorder's clock (0 on nil).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.c.clock()
}

// Emit appends one event to the ring, flushing the ring into the sink
// first when it is full. The caller sets TS explicitly (usually from
// Now, or from span endpoints it measured earlier); Emit never stamps
// time itself, which is what lets producers emit events in canonical
// order after the fact. No-op on nil.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if e.Cell == "" {
		e.Cell = r.cell
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.n == len(c.ring) {
		c.flushLocked()
	}
	c.ring[c.n] = e
	c.n++
}

// Flush drains the ring into the sink and reports the first sink error
// seen so far. Nil-safe.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.err
}

// Close flushes, closes the sink when it is closable, and makes further
// Emits no-ops. It returns the first error from the sink (write or
// close). Nil-safe; idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.flushLocked()
	c.closed = true
	if cl, ok := c.sink.(interface{ Close() error }); ok {
		if err := cl.Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}

// flushLocked encodes the buffered events into the reused batch buffer
// and writes them to the sink in one call. Sink errors are sticky: the
// first one is kept and the recorder keeps accepting (and discarding)
// events so a broken disk never stalls a federation.
func (c *core) flushLocked() {
	if c.n == 0 {
		return
	}
	c.batch = c.batch[:0]
	for i := 0; i < c.n; i++ {
		c.batch, c.rec = appendRecord(c.batch, c.rec, &c.ring[i])
	}
	c.n = 0
	if c.err != nil {
		return
	}
	if _, err := c.sink.Write(c.batch); err != nil {
		c.err = err
	}
}
