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
//     becomes RoundStats and trace events. The events are its only
//     observability output: one health.Fold, built from the Federation's
//     planes, folds them into the obs.RoundSample and the health verdicts.
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

	// Lent says every non-nil vector of the update was borrowed from param's
	// pool (param.Borrow), and whoever consumes the update last gives them
	// back (GiveBack): the round that accepted it, once its sink has
	// finished (Round.Arrive); a networked client, once the reply carrying it
	// is sent.
	Lent bool
}

// GiveBack returns a Lent update's vectors to param's pool and leaves the
// update without them; an update that is not Lent is left as it is.
func (u *Update) GiveBack() {
	if !u.Lent {
		return
	}
	for _, v := range [...]param.Vector{u.Params, u.ControlDelta} {
		if v != nil {
			param.GiveBack(v)
		}
	}
	u.Params, u.ControlDelta, u.Lent = nil, nil, false
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
// Implementations keep per-client state across rounds (momentum encoders,
// personalized models, control variates) in their method's ClientTable
// rows and nowhere else; they must be safe for concurrent calls on
// distinct clients. global is read-only and lent for
// the call: a networked client receives each round's vector into one it
// borrows from param's pool for the request and gives back once the reply
// is sent, so an implementation that needs the global later copies it.
//
// The returned update's payload is lent the other way, until the round
// closes, in one of three ways:
//   - Lent: vectors borrowed from param's pool for this update (a
//     stateless method trains a model it borrows for the call), which the
//     last consumer gives back (Update.GiveBack);
//   - the client's own row of the method's ClientTable (or a window of
//     it), which the client's next Train overwrites;
//   - global itself, for a trainer that does not train (script): the
//     runtimes keep global alive until the round closes, and a networked
//     client until its reply is sent.
//
// Whatever receives an update — a transport, a sink, an aggregator, a
// wrapper around the trainer — reads the payload and keeps nothing of it
// past the round (Round.Arrive), and nothing trains that client again
// before then. A wrapper that replaces a Lent payload gives the replaced
// vectors back.
type Trainer interface {
	Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*Update, error)
}

// Aggregator merges one round's updates into the next global vector.
// Implementations must treat global and every update payload as
// read-only, and must hand the returned vector over to the caller: one
// borrowed from param's pool (param.Borrow, as every aggregator in this
// package does) or freshly allocated, never global, a payload or a buffer
// the aggregator keeps. The round core (RunRounds) owns it from then on:
// it shares it with the next round's clients and with the checkpoint
// written behind that round, and gives it back to the pool after its last
// reader — the round that supersedes it, once that round's sink has
// finished, or the write-behind save that still reads it then. A round
// whose deadline expired leaves its global to the GC instead:
// internal/flnet sends the global as it is, straight from its memory, and
// a requeued or evicted straggler's send may still be reading it rounds
// later. The final global is the caller's.
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
	// Clients is the table the method keeps its clients' cross-round state
	// in, shared with its trainer and personalizer; nil when a client's
	// local update depends on nothing but (seed, round, client, global).
	// The simulator checkpoints and restores it; a networked server cannot,
	// since the rows live in the client processes.
	Clients *ClientTable
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
	// under adversarial control (Federation.Adversary).
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
