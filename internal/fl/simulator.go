package fl

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/tensor"
	"calibre/internal/trace"
)

// SimConfig controls a federated training simulation.
type SimConfig struct {
	Rounds          int
	ClientsPerRound int
	Seed            int64
	// Parallelism bounds concurrent local updates; 0 means GOMAXPROCS.
	Parallelism int
	// KernelWorkers, when > 0, resizes the process-wide tensor kernel pool
	// before the simulation starts (tensor.SetWorkers). The pool is shared
	// by all concurrently-training clients, which bounds nested fan-out:
	// kernel tiles run on at most KernelWorkers pool goroutines plus the
	// calling client goroutines themselves (each caller also works through
	// one chunk of its own product), so total kernel concurrency is about
	// Parallelism + KernelWorkers rather than their product. 0 leaves the
	// current pool size untouched. The same pool shard-parallelizes the
	// server-side aggregation sweeps (param.Shard), so this knob governs
	// both local training and aggregation parallelism.
	KernelWorkers int
	// DropoutRate simulates client failures/stragglers: each sampled
	// client independently drops out of the round with this probability
	// (its update is simply missing, as in production FL). At least
	// max(1, Quorum) sampled clients always survive so every round
	// aggregates something.
	DropoutRate float64
	// Trace, when set, replaces the flat DropoutRate with a seeded
	// availability trace (diurnal sine, flash-crowd burst or correlated
	// markov churn): each sampled client drops out of round r with
	// probability Trace.DropProb(r, id). Mutually exclusive with
	// DropoutRate; the quorum-survivor guarantee still holds.
	Trace *TraceConfig
	// Adversary, when set, places a seeded fraction of the client
	// population under adversarial control (see Adversary). The compromised
	// set and every hostile payload are pure functions of Seed, so hostile
	// runs replay and resume bit-identically; RoundStats.AdversarialUpdates
	// and RejectedUpdates account for the attack per round.
	Adversary *Adversary
	// Quorum is the minimum number of surviving updates a round keeps
	// under DropoutRate (K in K-of-N aggregation). 0 means 1 — the
	// historical "at least one survivor" floor. It mirrors the flnet
	// server's quorum knob: the networked server waits for K updates,
	// the simulator guarantees K survivors.
	Quorum int
	// Straggler decides the fate of dropped clients: StragglerRequeue
	// (default) drops them for the round only, StragglerDrop evicts them
	// from the population for the rest of the simulation.
	Straggler StragglerPolicy
	// OnRound, if set, observes each completed round (single-goroutine).
	OnRound func(RoundStats)
	// Obs, if non-nil, receives live observability for every completed
	// round (an obs.RoundSample plus per-client participation and the
	// latency histograms). Obs, Recorder, Health and OnAlert are the four
	// plane fields: Run hands them to the round core as one health.Fold,
	// which folds the core's trace events into those samples — the same
	// fold `calibre doctor replay` runs over a recorded trace. Purely
	// additive: an attached registry never perturbs training —
	// instrumented runs are bit-identical to uninstrumented ones (pinned
	// by TestObsRegistryDoesNotPerturbRun).
	Obs *obs.Registry
	// Recorder, if non-nil, receives the flight-recorder event stream:
	// round spans, per-client dispatch/update/drop events (with wire
	// encoding and turnaround), checkpoint and resume marks. Like Obs it
	// is purely observational — a traced run is bit-identical to a bare
	// one (pinned by TestTraceDoesNotPerturbRun), and with an injected
	// trace.Clock the emitted bytes are deterministic too. All events are
	// emitted from the round loop in canonical order; workers only record
	// timestamps, so a non-thread-safe injected clock requires
	// Parallelism 1 (real-clock runs may parallelize freely).
	Recorder *trace.Recorder
	// Health, if non-nil, streams every completed round through the
	// detector layer (internal/health): loss divergence/plateau,
	// fairness-gap drift, per-client update-norm outliers, quorum
	// regression. Like Obs and Recorder it is nil-safe and purely
	// observational — detectors read the round stream and never feed
	// back into training, so an instrumented run is bit-identical to a
	// bare one (pinned by TestHealthMonitorDoesNotPerturbRun). With Health
	// set the round samples carry per-client detail (losses, update norms,
	// straggler and rejected IDs), in Obs's ring too. On resume the
	// monitor is warm-started from the checkpoint's per-round history
	// (health.Fold.Warm: federation-level series only; per-client norm
	// windows are not part of SimState — replay a trace through `calibre
	// doctor` for full-fidelity post-mortems).
	Health *health.Monitor
	// OnAlert, if set, receives every alert Health raises, from the
	// round loop in round order (single-goroutine). Ignored when Health
	// is nil.
	OnAlert func(health.Alert)

	// OnCheckpoint, if set, receives the SimState (an immutable view whose
	// Global is lent until the hook, or the write it defers, returns: see
	// SimState) after every CheckpointEvery-th completed round and after
	// the final round, before OnRound for the same round. A hook that
	// saves inline has persisted the round when it returns; a hook that
	// hands its write back (SimState.Defer, as store.SaveHook does) has it
	// persisted by the next due checkpoint and, whatever ends the run, by
	// the time Run returns — so a callback that stops the run still finds
	// that round's state on disk afterwards. A checkpoint error, from the
	// hook or from its deferred write, aborts the run: durability was
	// requested, so failing loudly beats training on without it.
	OnCheckpoint func(*SimState) error
	// CheckpointEvery is the round stride between checkpoints; ≤0 means
	// every round. Ignored unless OnCheckpoint is set.
	CheckpointEvery int
	// ResumeFrom, if non-nil, continues a previous federation: the round
	// loop starts at ResumeFrom.Round with its global vector and history,
	// after replaying the completed rounds' RNG draws so the continuation
	// is bit-identical to a run that never stopped. The configuration
	// must match the checkpointed run's (internal/store fingerprints
	// guard this at the CLI layer). The method's client table is restored
	// from ResumeFrom.Rows; a method keeping cross-round state anywhere
	// else declares it via Stateful, and NewSimulator refuses it with
	// ErrStatefulResume.
	ResumeFrom *SimState
}

func (c *SimConfig) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// round fills the round core's configuration from the simulator's.
func (c *SimConfig) round(m *Method) RoundConfig {
	return RoundConfig{
		Rounds: c.Rounds, ClientsPerRound: c.ClientsPerRound, Seed: c.Seed,
		Quorum: c.Quorum, Straggler: c.Straggler, Trace: c.Trace, Adversary: c.Adversary,
		Aggregator: m.Aggregator, InitGlobal: m.InitGlobal, OnRound: c.OnRound,
		OnCheckpoint: c.OnCheckpoint, CheckpointEvery: c.CheckpointEvery, ResumeFrom: c.ResumeFrom,
		Planes:  health.Fold{Recorder: c.Recorder, Obs: c.Obs, Monitor: c.Health, OnAlert: c.OnAlert},
		clients: m.Clients,
	}
}

// Simulator drives federated training of one method over a fixed client
// population: the in-process Transport of the round core (RunRounds).
type Simulator struct {
	Config  SimConfig
	Method  *Method
	Clients []*partition.Client
}

// NewSimulator validates and assembles a simulator.
func NewSimulator(cfg SimConfig, method *Method, clients []*partition.Client) (*Simulator, error) {
	if err := method.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.round(method).Validate(method.Trainer, method.Aggregator, method.Personalizer); err != nil {
		return nil, err
	}
	switch {
	case len(clients) == 0:
		return nil, fmt.Errorf("fl: no clients")
	case cfg.DropoutRate < 0 || cfg.DropoutRate >= 1:
		return nil, fmt.Errorf("fl: dropout rate must be in [0,1), got %v", cfg.DropoutRate)
	case cfg.Trace != nil && cfg.DropoutRate > 0:
		return nil, fmt.Errorf("fl: Trace and DropoutRate are mutually exclusive")
	case cfg.Quorum > len(clients):
		return nil, fmt.Errorf("fl: quorum %d exceeds client population %d", cfg.Quorum, len(clients))
	}
	return &Simulator{Config: cfg, Method: method, Clients: clients}, nil
}

// applyDropout removes each id with probability probOf(id), keeping at
// least max(1, quorum) survivors (preferring random survivors when too
// many would drop). A nil probOf means no dropout and consumes no RNG
// draws — the stream contract flat-rate runs have always had.
func applyDropout(rng *rand.Rand, ids []int, probOf func(id int) float64, quorum int) []int {
	if probOf == nil {
		return ids
	}
	if quorum < 1 {
		quorum = 1
	}
	if quorum > len(ids) {
		quorum = len(ids)
	}
	kept := make([]int, 0, len(ids))
	dropped := make([]int, 0, len(ids))
	for _, id := range ids {
		if rng.Float64() >= probOf(id) {
			kept = append(kept, id)
		} else {
			dropped = append(dropped, id)
		}
	}
	for len(kept) < quorum {
		i := rng.Intn(len(dropped))
		kept = append(kept, dropped[i])
		dropped = append(dropped[:i], dropped[i+1:]...)
	}
	sort.Ints(kept)
	return kept
}

// Run executes the training stage and returns the final global vector and
// per-round statistics.
func (s *Simulator) Run(ctx context.Context) (param.Vector, []RoundStats, error) {
	cfg := &s.Config
	if cfg.KernelWorkers > 0 {
		tensor.SetWorkers(cfg.KernelWorkers)
	}
	t := &simTransport{
		Simulator: s,
		trace:     cfg.Trace.Generator(cfg.Seed),
		// The adversary wraps the trainer rather than mutating the method, so
		// a hostile run never leaks attack state into a shared Method value.
		trainer: cfg.Adversary.WrapTrainer(s.Method.Trainer, cfg.Seed, len(s.Clients)),
		alive:   make([]int, len(s.Clients)),
	}
	for i := range t.alive {
		t.alive[i] = i
	}
	return RunRounds(ctx, cfg.round(s.Method), t)
}

// simTransport is one Run's in-process Transport state.
type simTransport struct {
	*Simulator
	trace   *TraceGen // seeded availability generator; nil under flat DropoutRate
	trainer Trainer
	// alive is the sampleable population; StragglerDrop shrinks it.
	alive []int
}

func (t *simTransport) Runtime() string { return "sim" }
func (t *simTransport) Population() int { return len(t.Clients) }

// Draw consumes one round's worth of master-RNG draws — client sampling
// and dropout (with quorum rescue) — and shrinks the sampleable
// population under StragglerDrop. Live rounds and the resume replay both
// go through it, which is what makes a resumed run's RNG stream
// bit-identical to an uninterrupted one; the recorded pool sizes double as
// an integrity check against resuming under a drifted configuration.
func (t *simTransport) Draw(rng *rand.Rand, round, replayPool int) (sampled, live []int, pool int, err error) {
	pool = len(t.alive)
	if replayPool >= 0 && replayPool != pool {
		return nil, nil, pool, fmt.Errorf("replaying a pool of %d clients, checkpoint recorded %d (configuration drift?)", pool, replayPool)
	}
	picks := UniformSampler{}.Sample(rng, pool, t.Config.ClientsPerRound)
	sampled = make([]int, len(picks))
	for i, p := range picks {
		sampled[i] = t.alive[p]
	}
	var probOf func(id int) float64
	switch {
	case t.trace != nil:
		probOf = func(id int) float64 { return t.trace.DropProb(round, id) }
	case t.Config.DropoutRate > 0:
		probOf = func(int) float64 { return t.Config.DropoutRate }
	}
	live = applyDropout(rng, sampled, probOf, t.Config.Quorum)
	if len(live) != len(sampled) && t.Config.Straggler == StragglerDrop {
		t.alive = diffSorted(t.alive, diffSorted(sampled, live))
	}
	return sampled, live, pool, nil
}

// Collect trains every pending slot's client on at most Parallelism
// goroutines. Any trainer error aborts the run: a failing in-process
// trainer is a bug, not a straggler.
func (t *simTransport) Collect(ctx context.Context, r *Round) error {
	_, err := runParallel(ctx, t.Config.parallelism(), len(r.Participants()), func(ctx context.Context, slot int) (struct{}, error) {
		if !r.Pending(slot) {
			return struct{}{}, nil // dropped by the availability draw
		}
		id := r.Participants()[slot]
		r.Begin(slot)
		u, err := t.trainer.Train(ctx, ClientRNG(t.Config.Seed, r.Num, id), t.Clients[id], r.Global, r.Num)
		if err != nil {
			return struct{}{}, fmt.Errorf("fl: client %d round %d: %w", id, r.Num, err)
		}
		// A wrong-sized payload from an in-process trainer is a bug,
		// surfaced as a typed ErrUpdateSize instead of an index panic
		// inside the aggregator.
		if err := r.Arrive(slot, u); err != nil {
			return struct{}{}, fmt.Errorf("fl: round %d: %w", r.Num, err)
		}
		return struct{}{}, nil
	})
	return err
}

// diffSorted returns the elements of a (ascending) not present in b
// (ascending), preserving order.
func diffSorted(a, b []int) []int {
	out := make([]int, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// PersonalizeAll runs the personalization stage for every given client
// (participants and novel clients alike) and returns their local test
// accuracies, index-aligned with clients.
func PersonalizeAll(ctx context.Context, seed int64, method *Method, clients []*partition.Client, global param.Vector, parallelism int) ([]float64, error) {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return runParallel(ctx, parallelism, len(clients), func(ctx context.Context, id int) (float64, error) {
		rng := ClientRNG(seed, PersonalizeRound, clients[id].ID)
		acc, err := method.Personalizer.Personalize(ctx, rng, clients[id], global)
		if err != nil {
			return 0, fmt.Errorf("fl: personalize client %d: %w", clients[id].ID, err)
		}
		return acc, nil
	})
}
