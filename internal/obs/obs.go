package obs

import (
	"container/list"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Canonical counter names the runtimes feed. Keeping them as constants
// means the JSON endpoint, the Prometheus encoder and `calibre sweep
// watch` agree on spelling without a shared schema file.
const (
	// CounterRounds counts completed federated rounds (simulator and
	// server alike; sweeps accumulate across cells).
	CounterRounds = "rounds_total"
	// CounterResponders counts participants whose updates were aggregated.
	CounterResponders = "responders_total"
	// CounterStragglers counts participants whose updates were not
	// aggregated (deadline missed, dropped out, failed mid-round).
	CounterStragglers = "stragglers_total"
	// CounterLateUpdates counts stale straggler replies that drained
	// during later rounds' collection windows.
	CounterLateUpdates = "late_updates_total"
	// CounterDeadlineExpired counts rounds closed by their deadline with a
	// quorum rather than by every participant replying.
	CounterDeadlineExpired = "deadline_expired_total"
	// CounterUplinkWireBytes is the uplink payload cost: 8 bytes per
	// parameter of every update that reached the round ledger.
	CounterUplinkWireBytes = "uplink_wire_bytes_total"
	// CounterAdversarialUpdates counts aggregated updates that came from
	// clients under adversarial control (the seeded compromise trace).
	CounterAdversarialUpdates = "adversarial_updates_total"
	// CounterRejectedUpdates counts updates a robust aggregator excluded
	// from the aggregate by construction (fl.RobustAggregator.Rejected).
	CounterRejectedUpdates = "aggregator_rejected_updates_total"

	// CounterSweepCellsDone / CounterSweepCellsFailed count sweep cells by
	// outcome; CounterSweepCellsRestored counts cells a resume restored
	// from the manifest without re-running.
	CounterSweepCellsDone     = "sweep_cells_done_total"
	CounterSweepCellsFailed   = "sweep_cells_failed_total"
	CounterSweepCellsRestored = "sweep_cells_restored_total"

	// CounterHealthAlerts / CounterHealthCritical count health-plane alerts
	// raised by an attached health.Monitor, total and critical-severity
	// only. The runtimes (not the obs package) bump these, which keeps obs
	// free of a dependency on the detector layer.
	CounterHealthAlerts   = "health_alerts_total"
	CounterHealthCritical = "health_critical_alerts_total"
)

// Canonical gauge names.
const (
	// GaugeRound is the last completed round index.
	GaugeRound = "round"
	// GaugeSweepCellsPlanned / Pending / InFlight describe a running
	// sweep: the grid's total cell count, cells not yet finished in this
	// process, and cells currently executing.
	GaugeSweepCellsPlanned  = "sweep_cells_planned"
	GaugeSweepCellsPending  = "sweep_cells_pending"
	GaugeSweepCellsInFlight = "sweep_cells_in_flight"
	// GaugeHealthSuspects is the number of clients the attached
	// health.Monitor currently considers suspected adversaries.
	GaugeHealthSuspects = "health_suspect_clients"
)

// Canonical histogram names. Both record nanoseconds into the fixed
// latency buckets (see histBounds).
const (
	// HistRoundLatency is wall-clock per completed round.
	HistRoundLatency = "round_latency_ns"
	// HistClientTurnaround is dispatch→accepted-update per client span.
	HistClientTurnaround = "client_turnaround_ns"
)

// roundWindow bounds the per-round sample ring: a million-round run keeps
// live memory constant while the scraper still sees recent history.
const roundWindow = 256

// clientWindow is the default bound on the per-client participation
// table: an LRU over client IDs, so a million-client federation keeps
// the hottest ~4096 participants visible at constant memory instead of
// growing one map entry per client ever seen.
const clientWindow = 4096

// histBounds are the shared fixed latency bucket upper bounds in
// nanoseconds: 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s, 100s, then +Inf.
// Fixed buckets keep Observe allocation-free and make scrapes from
// different processes directly comparable.
var histBounds = []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}

// histBuckets is len(histBounds)+1: the finite buckets plus +Inf.
const histBuckets = 9

// Counter is a monotonically increasing metric. The zero value is usable;
// handles obtained from a Registry are shared and lock-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; safe for concurrent use, no-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value; no-op on nil.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative to decrement); no-op on nil.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram. Observations land in
// lock-free atomic buckets, so recording costs one linear scan over nine
// buckets plus three atomic adds — safe on the training hot path. The
// zero value is usable; handles from a Registry are shared.
type Histogram struct {
	counts [histBuckets]atomic.Int64 // finite buckets then +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value (nanoseconds by convention); no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(histBounds) && v > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a Histogram copied at one instant. Counts holds
// one entry per bucket (non-cumulative), the last being the +Inf bucket;
// Bounds holds the finite upper bounds.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: histBounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ClientSample is one responder's contribution to a round as the health
// plane needs to see it: the client's local training loss and the L2 norm
// of its update against the round's pre-aggregation global model. The
// runtimes only populate these (on RoundSample.Clients) when a
// health.Monitor is attached — bare metrics scrapes stay as cheap as
// before.
type ClientSample struct {
	ID   int     `json:"id"`
	Loss float64 `json:"loss"`
	Norm float64 `json:"norm"`
}

// RoundSample is one completed round as the metrics plane sees it — the
// fl.RoundStats straggler accounting plus the wire-byte and wall-clock
// facts the runtimes know at round close.
type RoundSample struct {
	// Runtime names the producer: "sim" (fl.Simulator, a sweep cell's
	// simulation included — a sweep's ring mixes its cells' rounds under
	// it) or "server" (flnet.Server).
	Runtime string `json:"runtime"`
	// Round is the round index within its federation.
	Round int `json:"round"`
	// Participants, Responders and Stragglers are head-counts (the
	// participation table tracks per-client detail).
	Participants int `json:"participants"`
	Responders   int `json:"responders"`
	Stragglers   int `json:"stragglers"`
	// LateUpdates counts stale straggler replies drained this round.
	LateUpdates int `json:"late_updates,omitempty"`
	// DeadlineExpired reports a round closed by its deadline with quorum.
	DeadlineExpired bool `json:"deadline_expired,omitempty"`
	// AdversarialUpdates counts aggregated updates from compromised
	// clients; RejectedUpdates counts updates the round's robust
	// aggregator excluded by construction.
	AdversarialUpdates int `json:"adversarial_updates,omitempty"`
	RejectedUpdates    int `json:"rejected_updates,omitempty"`
	// MeanLoss is the round's mean local training loss.
	MeanLoss float64 `json:"mean_loss"`
	// Clients lists per-responder loss/update-norm detail in canonical
	// (dispatch) order; StragglerIDs and RejectedIDs name the round's
	// stragglers and robust-aggregator rejections. All three are only
	// populated when a health.Monitor is attached to the producing
	// runtime.
	Clients      []ClientSample `json:"clients,omitempty"`
	StragglerIDs []int          `json:"straggler_ids,omitempty"`
	RejectedIDs  []int          `json:"rejected_ids,omitempty"`
	// UplinkWireBytes is the uplink payload cost of the round.
	UplinkWireBytes int64 `json:"uplink_wire_bytes"`
	// DurationMS is the round's wall-clock time. Observability only —
	// it never feeds back into training, which is what keeps
	// instrumented runs bit-identical to uninstrumented ones.
	DurationMS int64 `json:"duration_ms"`
}

// Registry is the process-local metrics hub. The zero value is not
// usable; build one with NewRegistry. All methods are safe for concurrent
// use and safe on a nil receiver (recording becomes a no-op), so runtime
// code instruments unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	rounds     []RoundSample
	// participation is a bounded LRU over client IDs: the map indexes
	// list elements whose values are *partEntry, with the
	// most-recently-seen client at the list front. Touch order is the
	// canonical order ids arrive in AddParticipation calls, so eviction
	// is deterministic for deterministic runs.
	participation map[int]*list.Element
	partOrder     *list.List
	clientsCap    int
}

// partEntry is one client's row in the participation LRU.
type partEntry struct {
	id    int
	count int64
}

// NewRegistry returns an empty registry with the 256-sample round ring
// and 4096-client participation table.
func NewRegistry() *Registry {
	return newRegistry(clientWindow)
}

// newRegistry is NewRegistry with a participation table of the given
// size.
func newRegistry(clients int) *Registry {
	return &Registry{
		counters:      make(map[string]*Counter),
		gauges:        make(map[string]*Gauge),
		histograms:    make(map[string]*Histogram),
		participation: make(map[int]*list.Element),
		partOrder:     list.New(),
		clientsCap:    clients,
	}
}

// Counter returns the named counter handle, creating it on first use.
// Returns nil (a usable no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge handle, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram handle, creating it on first
// use. Returns nil (a usable no-op handle) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// ObserveRound records one completed round: it appends the sample to the
// bounded ring and folds its facts into the aggregate counters and the
// round gauge, all under one lock so a concurrent Snapshot never sees a
// half-recorded round.
func (r *Registry) ObserveRound(s RoundSample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds = append(r.rounds, s)
	if len(r.rounds) > roundWindow {
		r.rounds = r.rounds[len(r.rounds)-roundWindow:]
	}
	r.counterLocked(CounterRounds).Add(1)
	r.counterLocked(CounterResponders).Add(int64(s.Responders))
	r.counterLocked(CounterStragglers).Add(int64(s.Stragglers))
	r.counterLocked(CounterLateUpdates).Add(int64(s.LateUpdates))
	var expired int64
	if s.DeadlineExpired {
		expired = 1
	}
	r.counterLocked(CounterDeadlineExpired).Add(expired)
	r.counterLocked(CounterAdversarialUpdates).Add(int64(s.AdversarialUpdates))
	r.counterLocked(CounterRejectedUpdates).Add(int64(s.RejectedUpdates))
	r.counterLocked(CounterUplinkWireBytes).Add(s.UplinkWireBytes)
	r.gaugeLocked(GaugeRound).Set(int64(s.Round))
}

// AddParticipation bumps the per-client participation count for every id
// (one round each) and marks each id most-recently-seen in the bounded
// LRU; when the table exceeds its client cap the least-recently-seen
// rows are evicted.
func (r *Registry) AddParticipation(ids []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		if el, ok := r.participation[id]; ok {
			el.Value.(*partEntry).count++
			r.partOrder.MoveToFront(el)
			continue
		}
		r.participation[id] = r.partOrder.PushFront(&partEntry{id: id, count: 1})
	}
	for len(r.participation) > r.clientsCap {
		back := r.partOrder.Back()
		delete(r.participation, back.Value.(*partEntry).id)
		r.partOrder.Remove(back)
	}
}

// counterLocked / gaugeLocked are the get-or-create paths for callers
// already holding r.mu.
func (r *Registry) counterLocked(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot is a consistent copy of a Registry at one instant — what the
// JSON endpoint serves and the Prometheus encoder renders. Maps are fresh
// copies; mutating a snapshot never touches the registry.
type Snapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	// Histograms maps histogram name to its bucketed state.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Rounds is the recent-round ring in chronological order.
	Rounds []RoundSample `json:"rounds,omitempty"`
	// Participation maps client ID (stringified for JSON) to the number
	// of rounds the client's update was aggregated in.
	Participation map[string]int64 `json:"participation,omitempty"`
}

// Snapshot copies the registry's state under one lock acquisition. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: map[string]int64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Counters: make(map[string]int64, len(r.counters))}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			snap.Histograms[name] = h.snapshot()
		}
	}
	if len(r.rounds) > 0 {
		snap.Rounds = append([]RoundSample(nil), r.rounds...)
	}
	if len(r.participation) > 0 {
		snap.Participation = make(map[string]int64, len(r.participation))
		for id, el := range r.participation {
			snap.Participation[strconv.Itoa(id)] = el.Value.(*partEntry).count
		}
	}
	return snap
}

// LastRound returns the most recent round sample, or false when none has
// been recorded.
func (s Snapshot) LastRound() (RoundSample, bool) {
	if len(s.Rounds) == 0 {
		return RoundSample{}, false
	}
	return s.Rounds[len(s.Rounds)-1], true
}

// sortedKeys returns m's keys in ascending order — the deterministic
// iteration the Prometheus encoder and tests rely on.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
