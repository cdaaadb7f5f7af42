// Package fl is the federated-learning runtime. It is method-agnostic — a
// personalized-FL method plugs in a Trainer (what a client does with the
// global parameter vector), an Aggregator (how the server merges updates)
// and a Personalizer (what runs in the paper's personalization stage) —
// and it implements a federation round exactly once:
//
//   - RunRounds (round.go) is the round core: lifecycle (InitGlobal,
//     RNG-replay resume, checkpoints, OnRound), the per-round ledger
//     (Round: uplink accounting, ingress validation, canonical-order
//     streaming aggregation, quorum checks) and the single place a round
//     becomes RoundStats, an obs.RoundSample, health verdicts and trace
//     events.
//   - A Transport supplies the two things that differ between runtimes:
//     Draw (how a round's RNG draws become participants) and Collect (how
//     their updates reach the ledger). Simulator is the in-process
//     transport; internal/flnet's server is the TCP one.
//
// Because both runtimes are transports over the same core, and derive
// every client RNG through ClientRNG, a (method, seed, config) triple
// yields the same global model, history and per-client accuracies
// whichever runtime ran it.
package fl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"calibre/internal/param"
	"calibre/internal/partition"
)

// ErrNoUpdates is returned by aggregators when a round produced no client
// updates.
var ErrNoUpdates = errors.New("fl: no client updates to aggregate")

// ErrUpdateSize marks an update whose payload (Params or ControlDelta)
// does not match the round's global vector. The runtimes check it at
// ingress — the simulator fails the round (a wrong-sized update from an
// in-process trainer is a bug), the networked server rejects the offending
// client — so a bad payload can never index out of bounds inside an
// aggregator.
var ErrUpdateSize = errors.New("fl: update payload does not match the global vector size")

// ErrQuorumNotMet is returned (wrapped) when a round's deadline expires
// before the configured quorum of client updates has arrived.
var ErrQuorumNotMet = errors.New("fl: quorum not met before round deadline")

// PanicError is a panic recovered from a client goroutine (local training
// or personalization), converted into an ordinary error so one
// misbehaving method cannot take down a process running many federations
// (the sweep scheduler relies on this to record the cell as failed and
// keep going). Value is the recovered panic value and Stack the goroutine
// stack captured at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error; the stack stays out of the one-line message and
// is available via the Stack field for logs.
func (e *PanicError) Error() string {
	return fmt.Sprintf("fl: panic in client goroutine: %v", e.Value)
}

// StragglerPolicy decides what happens to a sampled client that misses the
// round deadline under quorum aggregation.
type StragglerPolicy int

const (
	// StragglerRequeue (the default) discards the straggler's late update
	// but keeps the client in the federation: it rejoins the eligible pool
	// as soon as its stale reply drains and can be sampled in later rounds.
	StragglerRequeue StragglerPolicy = iota
	// StragglerDrop evicts the straggler from the federation entirely; it
	// is never sampled again and takes no part in personalization.
	StragglerDrop
)

// String renders the policy for logs and flags.
func (p StragglerPolicy) String() string {
	switch p {
	case StragglerRequeue:
		return "requeue"
	case StragglerDrop:
		return "drop"
	default:
		return fmt.Sprintf("stragglerpolicy(%d)", int(p))
	}
}

// ParseStragglerPolicy parses the CLI spelling of a policy.
func ParseStragglerPolicy(s string) (StragglerPolicy, error) {
	switch s {
	case "requeue", "":
		return StragglerRequeue, nil
	case "drop":
		return StragglerDrop, nil
	default:
		return 0, fmt.Errorf("fl: unknown straggler policy %q (want requeue or drop)", s)
	}
}

// Update is a client's result for one round of local training.
type Update struct {
	ClientID   int
	Params     param.Vector // full updated parameter vector
	NumSamples int          // local training set size (aggregation weight)
	TrainLoss  float64      // mean local objective value

	// Divergence is Calibre's prototype divergence rate: the mean distance
	// between local encodings and their assigned prototypes. Zero when the
	// method does not compute it.
	Divergence float64

	// ControlDelta carries SCAFFOLD's client control-variate change; nil
	// for other methods.
	ControlDelta param.Vector
}

// CheckSize validates the update's payload against the round's global
// vector. Every mismatch — missing payload, wrong length of Params or of
// ControlDelta — wraps ErrUpdateSize, so ingress layers can reject the
// sender with one typed check.
func (u *Update) CheckSize(global param.Vector) error {
	switch {
	case u.Params == nil:
		return fmt.Errorf("%w: client %d sent no payload", ErrUpdateSize, u.ClientID)
	case len(u.Params) != len(global):
		return fmt.Errorf("%w: client %d sent %d params, want %d", ErrUpdateSize, u.ClientID, len(u.Params), len(global))
	case u.ControlDelta != nil && len(u.ControlDelta) != len(global):
		return fmt.Errorf("%w: client %d control delta has %d entries, want %d", ErrUpdateSize, u.ClientID, len(u.ControlDelta), len(global))
	}
	return nil
}

// Trainer performs one client's local update for a round.
//
// Implementations may keep per-client state across rounds (momentum
// encoders, personalized models, control variates); they must be safe for
// concurrent calls on distinct clients. global is read-only and only
// valid during the call: a networked client receives each round's vector
// into one reused buffer, so an implementation that needs the global
// later copies it.
//
// The returned update's payload is lent the other way, until the round
// closes: Params may be the client model's own value vector (nn.Values),
// which the client's next Train overwrites. Whatever receives an update —
// a transport, a sink, an aggregator, a wrapper around the trainer — reads
// the payload and keeps nothing of it past the round (Round.Arrive), and
// nothing trains that client again before then.
type Trainer interface {
	Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*Update, error)
}

// Aggregator merges one round's updates into the next global vector.
// Implementations must treat global and every update payload as
// read-only, and must return a vector they never touch again — freshly
// allocated, not a buffer reused from an earlier round: a closed round's
// global is shared as is with the next round's clients, with RoundStats
// observers and with the checkpoint being written behind the next round,
// so writing to any of them would silently corrupt resume bit-identity.
type Aggregator interface {
	Aggregate(global param.Vector, updates []*Update) (param.Vector, error)
}

// Personalizer runs the personalization stage for one client given the
// final global vector, returning the client's local test accuracy. global
// is lent for the call, as for Trainer.
type Personalizer interface {
	Personalize(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector) (float64, error)
}

// Method bundles everything a personalized-FL algorithm contributes.
type Method struct {
	Name         string
	Trainer      Trainer
	Aggregator   Aggregator
	Personalizer Personalizer
	// InitGlobal produces the initial global parameter vector.
	InitGlobal func(rng *rand.Rand) (param.Vector, error)
}

// Validate checks that all required pieces are present.
func (m *Method) Validate() error {
	switch {
	case m.Name == "":
		return errors.New("fl: method missing name")
	case m.Trainer == nil:
		return fmt.Errorf("fl: method %s missing trainer", m.Name)
	case m.Aggregator == nil:
		return fmt.Errorf("fl: method %s missing aggregator", m.Name)
	case m.Personalizer == nil:
		return fmt.Errorf("fl: method %s missing personalizer", m.Name)
	case m.InitGlobal == nil:
		return fmt.Errorf("fl: method %s missing InitGlobal", m.Name)
	}
	return nil
}

// RoundStats records one round's outcome, including the asynchronous
// runtime's straggler accounting. In a fully synchronous round Responders
// equals Participants and the remaining fields are zero.
type RoundStats struct {
	Round        int
	Participants []int // clients sampled for the round
	MeanLoss     float64

	// Responders lists the participants whose updates were aggregated,
	// in canonical (ascending-slot) order. Nil means all participants
	// responded (fully synchronous round).
	Responders []int
	// Stragglers lists participants whose updates were not aggregated:
	// they missed the round deadline, dropped out, or failed mid-round.
	Stragglers []int
	// LateUpdates counts stale replies from earlier rounds' stragglers
	// that drained during this round's collection window.
	LateUpdates int
	// DeadlineExpired reports that the round was closed by its deadline
	// with a quorum of updates, rather than by every participant replying.
	DeadlineExpired bool
	// AdversarialUpdates counts aggregated updates that came from clients
	// under adversarial control (SimConfig.Adversary / the server's seeded
	// compromise trace).
	AdversarialUpdates int
	// RejectedUpdates counts updates a robust aggregator excluded from the
	// aggregate by construction (RobustAggregator.Rejected).
	RejectedUpdates int
}

// String renders the round on one log line, including straggler accounting
// when present; `calibre serve` and examples use it for OnRound output.
func (r RoundStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "round %d: participants=%v mean-loss=%.4f", r.Round, r.Participants, r.MeanLoss)
	if r.Responders != nil {
		fmt.Fprintf(&b, " responders=%v stragglers=%v", r.Responders, r.Stragglers)
	}
	if r.LateUpdates > 0 {
		fmt.Fprintf(&b, " late-updates=%d", r.LateUpdates)
	}
	if r.DeadlineExpired {
		b.WriteString(" deadline-expired")
	}
	if r.AdversarialUpdates > 0 {
		fmt.Fprintf(&b, " adversarial=%d", r.AdversarialUpdates)
	}
	if r.RejectedUpdates > 0 {
		fmt.Fprintf(&b, " rejected=%d", r.RejectedUpdates)
	}
	return b.String()
}

// UniformSampler draws perRound distinct clients uniformly (the paper's
// "10 clients randomly selected per round").
type UniformSampler struct{}

// Sample returns perRound distinct indices in [0, numClients), ascending
// (all of them, consuming no draws, when perRound ≥ numClients).
func (UniformSampler) Sample(rng *rand.Rand, numClients, perRound int) []int {
	if perRound >= numClients {
		out := make([]int, numClients)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := rng.Perm(numClients)
	out := append([]int(nil), perm[:perRound]...)
	sort.Ints(out)
	return out
}

// PersonalizeRound is the pseudo-round whose ClientRNG stream the
// personalization stage draws from: far past any training round, so
// adding rounds never shifts a client's personalization RNG.
const PersonalizeRound = 1 << 20

// ClientRNG derives the deterministic per-(round, client) RNG every
// runtime hands to a client's local update (and, at PersonalizeRound, to
// its personalization), so results depend neither on goroutine scheduling
// nor on which runtime ran the client.
func ClientRNG(seed int64, round, clientID int) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(round)*1_000_003 ^ int64(clientID)*7_777_777))
}

// runParallel executes fn for every index in [0, n) on at most parallelism
// goroutines, collecting results in index order. The first error cancels
// outstanding work.
func runParallel[T any](ctx context.Context, parallelism, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Stop dispatching once the context is canceled (first error or
		// parent cancellation); already-spawned goroutines drain on their
		// own ctx check.
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(slot int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Panic isolation: a panicking trainer/personalizer becomes a
			// typed error on its slot instead of crashing the process.
			defer func() {
				if r := recover(); r != nil {
					errs[slot] = &PanicError{Value: r, Stack: debug.Stack()}
					cancel()
				}
			}()
			if ctx.Err() != nil {
				errs[slot] = ctx.Err()
				return
			}
			res, err := fn(ctx, slot)
			if err != nil {
				errs[slot] = err
				cancel()
				return
			}
			results[slot] = res
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil && errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	// A plain cancel from an error path was already surfaced above; if the
	// parent ctx was canceled, report it.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Parent cancellation can also land between dispatches, stopping the
	// loop before any goroutine records an error: the results are then
	// incomplete and must not be returned as success.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ClientStates keeps a trainer's long-lived per-client values (a client's
// model, its SSL trainable) across rounds. The zero value is ready to use
// and safe for concurrent use.
//
// Get consumes exactly ONE draw from rng whether or not the client is
// already cached: the draw seeds the RNG handed to build, which runs only on
// first use. The caller's downstream stream therefore never depends on
// whether this process has seen the client before — the invariance that
// lets a checkpoint-resumed process, whose caches start cold, train
// bit-identically to one that was never restarted.
type ClientStates[T any] struct {
	mu sync.Mutex
	m  map[int]T
}

// Get returns client id's value, building it on first use; the boolean
// reports whether it was already cached (false = first contact).
func (c *ClientStates[T]) Get(rng *rand.Rand, id int, build func(*rand.Rand) (T, error)) (T, bool, error) {
	initSeed := rng.Int63()
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[id]; ok {
		return v, true, nil
	}
	v, err := build(rand.New(rand.NewSource(initSeed)))
	if err != nil {
		return v, false, err
	}
	if c.m == nil {
		c.m = make(map[int]T)
	}
	c.m[id] = v
	return v, false, nil
}

// Peek returns client id's value without building one.
func (c *ClientStates[T]) Peek(id int) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[id]
	return v, ok
}
