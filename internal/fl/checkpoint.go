package fl

import (
	"errors"
	"fmt"

	"calibre/internal/param"
)

// SimState is a federation's complete server-side state at a round
// boundary: everything the round loop needs to continue exactly as if the
// process had never stopped. Both runtimes — the in-process Simulator and
// the flnet TCP server — emit it through their OnCheckpoint hooks and
// accept it back through their ResumeFrom knobs; internal/store persists
// it durably with the versioned binary codec.
//
// A state delivered to OnCheckpoint is an immutable view: Global is the
// closed round's aggregate and History / EligibleCounts are
// capacity-capped prefixes of the loop's own slices, so their hand-off
// costs the same at round 10 and round 1000. Rows alone is a copy — of the
// method's client table, whose rows the next round trains in while a
// write-behind save still reads the state — so its part of the hand-off
// grows with the clients the table has seen times the row size (a whole
// model for the partial-personalization family). Global is lent: until
// the hook returns or, when the hook hands its write back (Defer), until
// that write returns; the round loop then gives it back to param's pool
// for a later round's aggregate. A hook that keeps the state past then
// clones Global, and no hook writes through the state.
//
// The master RNG is deliberately not part of the state. Both runtimes
// consume it only for client sampling and dropout draws, so the resume
// path restores it exactly by replaying those draws: the simulator re-runs
// its deterministic sampling loop, and the networked server — whose
// sampling-pool size depends on real-world join timing — replays against
// the recorded EligibleCounts. A client's cross-round state is its row of
// the method's ClientTable, carried as Rows, so a method's local updates
// are pure functions of (seed, round, client, global, row) and a resumed
// federation is bit-identical to an uninterrupted one. What a snapshot
// still cannot hold is state kept elsewhere: a component that keeps it
// declares so via Stateful (SCAFFOLD's server control variate), and the
// resume paths refuse it (ErrStatefulResume). So does a networked server
// for a method with a table, whose rows live in its clients' processes.
type SimState struct {
	// Round is the number of completed rounds; the resumed loop starts
	// here.
	Round int
	// Global is the aggregated global parameter vector after Round rounds.
	Global param.Vector
	// History holds the RoundStats of every completed round, in order.
	History []RoundStats
	// EligibleCounts[r] is the size of the sampling pool when round r was
	// drawn. The simulator re-derives the pool during replay and uses the
	// recorded counts as an integrity cross-check; the networked server
	// replays Sample with them directly.
	EligibleCounts []int
	// Rows is the method's client table after Round rounds (Method.Clients),
	// by client id; nil for a method without one.
	Rows map[int]param.Vector

	// behind is the delivering loop's checkpoint slot, set only for the
	// duration of an OnCheckpoint call (see Defer).
	behind *writeBehind
}

// Defer hands the slow, durable part of a checkpoint hook back to the
// round loop that delivered st: the loop runs write on its one checkpoint
// goroutine once OnRound has returned for the same round, behind the next
// round's dispatch and training, waits for it before the next checkpoint
// hook call and before RunRounds returns, and aborts the run with write's
// error at that wait. write may read st (it is an immutable view) but must
// not expect the loop's goroutine. Valid only during the hook call; on a
// state that did not come from a round loop write runs inline and Defer
// returns its error.
func (st *SimState) Defer(write func() error) error {
	if st.behind == nil {
		return write()
	}
	st.behind.pending = append(st.behind.pending, write)
	return nil
}

// writeBehind is a round loop's one checkpoint slot: what the hook being
// called has handed back through SimState.Defer, and the single write in
// flight. Everything but the write itself stays on the loop goroutine.
type writeBehind struct {
	pending []func() error // handed back by the current hook call, not started
	round   int            // the closed round the pending / in-flight write saves
	done    chan error     // non-nil while a write is in flight
	// retired is the global the write in flight reads, superseded since:
	// the loop gives it back once the write has returned (retire).
	retired param.Vector
}

// start runs the accepted writes, in order, on the checkpoint goroutine.
// The loop calls it after OnRound, so an observer never overlaps a write.
func (b *writeBehind) start() {
	if len(b.pending) == 0 {
		return
	}
	writes, done := b.pending, make(chan error, 1)
	b.pending, b.done = nil, done
	go func() {
		for _, write := range writes {
			if err := write(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
}

// Validate checks the state's internal consistency against a round budget
// (rounds ≤ 0 skips the budget check, for callers that extend the run).
func (st *SimState) Validate(rounds int) error {
	switch {
	case st.Round < 0:
		return fmt.Errorf("fl: checkpoint state has negative round %d", st.Round)
	case rounds > 0 && st.Round > rounds:
		return fmt.Errorf("fl: checkpoint at round %d exceeds the %d-round budget", st.Round, rounds)
	case len(st.Global) == 0:
		return fmt.Errorf("fl: checkpoint state has an empty global vector")
	case len(st.History) != st.Round:
		return fmt.Errorf("fl: checkpoint history has %d rounds, want %d", len(st.History), st.Round)
	case len(st.EligibleCounts) != st.Round:
		return fmt.Errorf("fl: checkpoint has %d eligible counts, want %d", len(st.EligibleCounts), st.Round)
	}
	for r, n := range st.EligibleCounts {
		if n < 1 {
			return fmt.Errorf("fl: checkpoint eligible count for round %d is %d, want ≥1", r, n)
		}
	}
	return nil
}

// Stateful is an optional capability interface for Trainers, Aggregators
// and Personalizers. An implementation whose behavior depends on in-memory
// state accumulated across rounds outside the global vector and the
// method's ClientTable — SCAFFOLD's server control variate
// (ScaffoldAggregator) — declares it by returning true. SimState does not
// capture such state, so a cold-started process cannot reconstruct it: a
// resumed run would silently diverge from the uninterrupted one, with no
// fingerprint able to detect it. Resume paths therefore refuse these
// methods with ErrStatefulResume.
type Stateful interface {
	CarriesRoundState() bool
}

// ErrStatefulResume marks an attempt to resume a method that carries
// cross-round state a SimState checkpoint does not capture.
var ErrStatefulResume = errors.New("fl: method carries cross-round state not captured by checkpoints; resume would diverge")

// Resumable reports whether a method can be resumed bit-identically from
// a SimState snapshot: true unless its trainer, aggregator or
// personalizer declares cross-round state via Stateful.
func Resumable(m *Method) bool {
	return statefulPart(m.Trainer, m.Aggregator, m.Personalizer) == nil
}

// statefulPart returns the first of parts that declares cross-round state
// via Stateful, or nil.
func statefulPart(parts ...any) any {
	for _, p := range parts {
		if s, ok := p.(Stateful); ok && s.CarriesRoundState() {
			return p
		}
	}
	return nil
}

// CheckpointDue reports whether a checkpoint should be taken after
// `completed` rounds under stride `every` (≤0 means every round) of a
// `total`-round federation. The final round always checkpoints, so a
// completed run leaves its terminal state on disk.
func CheckpointDue(completed, every, total int) bool {
	if every <= 0 {
		every = 1
	}
	return completed%every == 0 || completed == total
}
