package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/param"
	"calibre/internal/partition"
)

// behindHook is a deferring checkpoint hook under test control: it books
// every hand-off and every write, can slow, block or fail a write, and
// notices two writes in flight.
type behindHook struct {
	delay  time.Duration
	failAt int           // the write saving this many rounds fails (0: none)
	gate   chan struct{} // when non-nil, every write waits for it to close
	began  chan int      // when non-nil, receives each write's round as it starts

	mu                sync.Mutex
	handoffs          []int // st.Round of every hook call
	started, finished []int // st.Round of every write
	inFlight, maxOpen int
	atHandoff         []int // writes finished when each hook call was made
}

var errDiskFull = errors.New("disk full")

func (h *behindHook) hook(st *SimState) error {
	h.mu.Lock()
	h.handoffs = append(h.handoffs, st.Round)
	h.atHandoff = append(h.atHandoff, len(h.finished))
	h.mu.Unlock()
	return st.Defer(func() error {
		h.mu.Lock()
		h.started = append(h.started, st.Round)
		h.inFlight++
		h.maxOpen = max(h.maxOpen, h.inFlight)
		h.mu.Unlock()
		if h.began != nil {
			h.began <- st.Round
		}
		if h.gate != nil {
			<-h.gate
		}
		time.Sleep(h.delay)
		h.mu.Lock()
		defer h.mu.Unlock()
		h.inFlight--
		h.finished = append(h.finished, st.Round)
		if st.Round == h.failAt {
			return errDiskFull
		}
		return nil
	})
}

func (h *behindHook) open() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inFlight
}

func (h *behindHook) done() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.finished...)
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestWriteBehindOrderAndBackPressure: with writes far slower than a round,
// hook calls and writes still happen strictly in round order, one write at a
// time, each hook call only after the previous write returned (rounds wait;
// nothing queues), no observer overlaps a write, and Run returns only after
// the last one.
func TestWriteBehindOrderAndBackPressure(t *testing.T) {
	const rounds = 6
	h := &behindHook{delay: 5 * time.Millisecond}
	overlapped := 0
	cfg := SimConfig{Rounds: rounds, ClientsPerRound: 2, Seed: 1, OnCheckpoint: h.hook,
		OnRound: func(RoundStats) { overlapped += h.open() }}
	runToCompletion(t, cfg)
	if want := upTo(rounds); !reflect.DeepEqual(h.handoffs, want) || !reflect.DeepEqual(h.started, want) || !reflect.DeepEqual(h.finished, want) {
		t.Fatalf("hand-offs %v, writes started %v finished %v, want all %v", h.handoffs, h.started, h.finished, want)
	}
	if h.maxOpen != 1 {
		t.Errorf("%d writes in flight at once, want 1", h.maxOpen)
	}
	for i, n := range h.atHandoff {
		if n != i {
			t.Errorf("hook call %d made with %d writes finished: the loop did not wait for the write in flight", i+1, n)
		}
	}
	if overlapped != 0 {
		t.Errorf("OnRound overlapped a checkpoint write %d times", overlapped)
	}
}

// TestWriteBehindInlineHookUnchanged: a hook that defers nothing behaves as
// before (saved when it returns), and Defer on a state no loop delivered
// runs the write inline.
func TestWriteBehindInlineHookUnchanged(t *testing.T) {
	var got []int
	cfg := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 1,
		OnCheckpoint: func(st *SimState) error { got = append(got, st.Round); return nil }}
	before := goroutinesBeforeRun(t)
	runToCompletion(t, cfg)
	if !reflect.DeepEqual(got, upTo(3)) {
		t.Fatalf("inline hook saw rounds %v", got)
	}
	waitGoroutines(t, before)
	ran := false
	if err := (&SimState{}).Defer(func() error { ran = true; return errDiskFull }); !ran || err != errDiskFull {
		t.Fatalf("Defer outside a loop: ran=%v err=%v, want an inline call and its error", ran, err)
	}
}

// TestWriteBehindDrainsOnEveryExit: however Run ends — success, a hook
// error, a cancelled context, a failing round — it does not return before
// the write in flight has, and no goroutine is left behind.
func TestWriteBehindDrainsOnEveryExit(t *testing.T) {
	cases := []struct {
		name    string
		rounds  int
		prepare func(cfg *SimConfig, h *behindHook, tr *fakeTrainer, cancel context.CancelFunc)
		wantErr func(error) bool
	}{
		{name: "success", rounds: 1,
			wantErr: func(err error) bool { return err == nil }},
		{name: "hook error", rounds: 3,
			prepare: func(cfg *SimConfig, h *behindHook, _ *fakeTrainer, _ context.CancelFunc) {
				cfg.OnCheckpoint = func(st *SimState) error {
					if st.Round == 2 {
						return errDiskFull
					}
					return h.hook(st)
				}
			},
			wantErr: func(err error) bool {
				return errors.Is(err, errDiskFull) && strings.Contains(err.Error(), "checkpoint after round 1:")
			}},
		{name: "cancelled context", rounds: 3,
			prepare: func(cfg *SimConfig, _ *behindHook, _ *fakeTrainer, cancel context.CancelFunc) {
				cfg.OnRound = func(RoundStats) { cancel() }
			},
			wantErr: func(err error) bool { return errors.Is(err, context.Canceled) }},
		{name: "failing round", rounds: 3,
			prepare: func(cfg *SimConfig, _ *behindHook, tr *fakeTrainer, _ context.CancelFunc) {
				cfg.OnRound = func(RoundStats) { tr.fail = true }
			},
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "boom") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutinesBeforeRun(t)
			h := &behindHook{gate: make(chan struct{}), began: make(chan int, tc.rounds)} // a slot per write: none blocks on the test
			tr := &fakeTrainer{}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := SimConfig{Rounds: tc.rounds, ClientsPerRound: 2, Seed: 1, Parallelism: 1, OnCheckpoint: h.hook}
			if tc.prepare != nil {
				tc.prepare(&cfg, h, tr, cancel)
			}
			sim, err := NewSimulator(cfg, fakeMethod(tr), testClients(t, 6))
			if err != nil {
				t.Fatal(err)
			}
			ended := make(chan error, 1)
			go func() {
				_, _, err := sim.Run(ctx)
				ended <- err
			}()
			select {
			case r := <-h.began:
				if r != 1 {
					t.Fatalf("first write saves round %d, want 1", r)
				}
			case err := <-ended:
				t.Fatalf("Run ended (%v) before any write started", err)
			}
			select {
			case err := <-ended:
				t.Fatalf("Run returned (%v) with the round-1 write still in flight", err)
			case <-time.After(30 * time.Millisecond):
			}
			close(h.gate)
			if err := <-ended; !tc.wantErr(err) {
				t.Fatalf("Run error = %v", err)
			}
			if got := h.done(); len(got) == 0 || got[0] != 1 {
				t.Fatalf("writes finished when Run returned: %v", got)
			}
			if h.open() != 0 {
				t.Fatal("a write outlived Run")
			}
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines gives exiting goroutines (parallel workers, the finished
// checkpoint goroutine) a moment to be reaped.
// goroutinesBeforeRun counts goroutines once what outlives every Run is up:
// the kernel pool's workers, which the first kernel to run in parallel
// starts, in a shuffled order possibly the test's own Run.
func goroutinesBeforeRun(t *testing.T) int {
	t.Helper()
	runToCompletion(t, SimConfig{Rounds: 1, ClientsPerRound: 2, Seed: 1})
	return runtime.NumGoroutine()
}

func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Errorf("%d goroutines after Run, %d before", n, want)
	}
}

// TestWriteBehindDrainsOnQuorumFailure drives the round core directly: a
// round that fails with ErrQuorumNotMet still waits for the previous
// round's write.
func TestWriteBehindDrainsOnQuorumFailure(t *testing.T) {
	all := []int{1, 3, 4, 6}
	h := &behindHook{gate: make(chan struct{}), began: make(chan int, 1)}
	tr := &scriptTransport{sampled: all, live: all,
		script: []scriptOp{{"arrive", 0}, {"arrive", 1}, {"arrive", 2}, {"arrive", 3}}}
	cfg := RoundConfig{
		Rounds: 3, ClientsPerRound: 4, Seed: 5, Aggregator: WeightedAverage{},
		InitGlobal:   func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 4), nil },
		OnCheckpoint: h.hook,
		// The second round loses a participant under full synchrony.
		OnRound: func(RoundStats) { tr.script = []scriptOp{{"arrive", 0}, {"reject", 1}} },
	}
	ended := make(chan error, 1)
	go func() {
		_, _, err := RunRounds(context.Background(), cfg, tr)
		ended <- err
	}()
	select {
	case <-h.began:
	case err := <-ended:
		t.Fatalf("RunRounds ended (%v) before any write started", err)
	}
	select {
	case err := <-ended:
		t.Fatalf("RunRounds returned (%v) with a write in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(h.gate)
	if err := <-ended; !errors.Is(err, ErrQuorumNotMet) {
		t.Fatalf("err = %v, want ErrQuorumNotMet", err)
	}
	if got := h.done(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("writes finished when RunRounds returned: %v, want [1]", got)
	}
}

// TestWriteBehindErrorAbortsAtNextBoundary: a write that fails behind round
// r+1 aborts the run at that round's boundary — before its hook call and
// its OnRound — under the failed checkpoint's round number.
func TestWriteBehindErrorAbortsAtNextBoundary(t *testing.T) {
	h := &behindHook{failAt: 2} // the state after rounds 0 and 1
	observed := 0
	cfg := SimConfig{Rounds: 5, ClientsPerRound: 2, Seed: 1, OnCheckpoint: h.hook,
		OnRound: func(RoundStats) { observed++ }}
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sim.Run(context.Background())
	if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "fl: checkpoint after round 1:") {
		t.Fatalf("err = %v, want the write's error under round 1", err)
	}
	if observed != 2 || !reflect.DeepEqual(h.handoffs, []int{1, 2}) {
		t.Fatalf("%d rounds observed, hand-offs %v: the run went past the boundary after the failed write", observed, h.handoffs)
	}

	// The last round's write has no next boundary: the drain reports it.
	h = &behindHook{failAt: 2}
	cfg = SimConfig{Rounds: 2, ClientsPerRound: 2, Seed: 1, OnCheckpoint: h.hook}
	if sim, err = NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6)); err != nil {
		t.Fatal(err)
	}
	if global, history, err := sim.Run(context.Background()); !errors.Is(err, errDiskFull) || global != nil || history != nil {
		t.Fatalf("final write failed: Run = (%v, %v, %v), want only the write's error", global, history, err)
	}
}

// robustAndBenign is every aggregator a run can be configured with: the
// ParseAggregator specs plus the method-owned ones.
func robustAndBenign(t *testing.T, n int) map[string]Aggregator {
	aggs := aggregatorsUnderTest(n)
	for _, spec := range []string{"mean", "median", "trimmed(0.2)", "krum(1)"} {
		a, err := ParseAggregator(spec)
		if err != nil {
			t.Fatal(err)
		}
		aggs[spec] = a
	}
	return aggs
}

// addRoundTrainer nudges every element deterministically so consecutive
// globals differ everywhere.
type addRoundTrainer struct{}

func (addRoundTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	out := global.Clone()
	for i := range out {
		out[i] += 1e-3 * float64(c.ID+1) * float64(i%5)
	}
	return &Update{ClientID: c.ID, Params: out, NumSamples: c.ID + 1, TrainLoss: 0.5}, nil
}

// TestLentGlobalHoldsUntilItsWriteReturns pins the lifetime of the global a
// checkpoint lends: whatever the aggregator, a retained state's Global is
// bit-unchanged, and not idle in param's pool, until its deferred write
// returns — while the next round, whose aggregate is borrowed from the
// pool, runs beside the write. Consecutive rounds never share a vector,
// and the final checkpoint lends the very global the run returns.
func TestLentGlobalHoldsUntilItsWriteReturns(t *testing.T) {
	const rounds = 4
	for name, agg := range robustAndBenign(t, 4) {
		var mu sync.Mutex
		var problems []string
		var globals []param.Vector
		m := fakeMethod(addRoundTrainer{})
		m.Aggregator = agg
		cfg := SimConfig{Rounds: rounds, ClientsPerRound: 5, Seed: 3,
			OnCheckpoint: func(st *SimState) error {
				bits := cloneBits(st.Global)
				globals = append(globals, st.Global)
				return st.Defer(func() error {
					time.Sleep(time.Millisecond) // the next round runs meanwhile
					mu.Lock()
					defer mu.Unlock()
					for i, x := range st.Global {
						if math.Float64bits(x) != bits[i] {
							problems = append(problems, fmt.Sprintf("round %d: element %d of the lent global mutated", st.Round, i))
							break
						}
					}
					if param.IsIdle(st.Global) {
						problems = append(problems, fmt.Sprintf("round %d: the lent global is idle in the pool before its write returned", st.Round))
					}
					return nil
				})
			}}
		sim, err := NewSimulator(cfg, m, testClients(t, 6))
		if err != nil {
			t.Fatal(err)
		}
		global, _, err := sim.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(problems) > 0 {
			t.Fatalf("%s: %s", name, strings.Join(problems, "; "))
		}
		if len(globals) != rounds {
			t.Fatalf("%s: %d checkpoints", name, len(globals))
		}
		for i := 1; i < rounds; i++ {
			if &globals[i][0] == &globals[i-1][0] {
				t.Fatalf("%s: rounds %d and %d share one vector", name, i-1, i)
			}
		}
		if &global[0] != &globals[rounds-1][0] {
			t.Fatalf("%s: the final checkpoint copied the global", name)
		}
		if param.IsIdle(global) {
			t.Fatalf("%s: the returned global is idle in the pool", name)
		}
	}
}

// TestSlowWriteReadsItsGlobalAcrossRounds: a deferred write that takes
// three rounds reads its global bit-unchanged while those rounds borrow
// and give back their own, and the loop gives that global back once the
// next checkpoint's wait has seen the write return.
func TestSlowWriteReadsItsGlobalAcrossRounds(t *testing.T) {
	const every, slow = 4, 3
	gate := make(chan struct{})
	var saved param.Vector
	var mutated, idleAfterAwait bool
	cfg := SimConfig{Rounds: 2 * every, ClientsPerRound: 2, Seed: 6, CheckpointEvery: every}
	cfg.OnCheckpoint = func(st *SimState) error {
		switch st.Round {
		case every:
			saved = st.Global
			bits := cloneBits(saved)
			return st.Defer(func() error {
				<-gate
				for i, x := range saved {
					mutated = mutated || math.Float64bits(x) != bits[i]
				}
				return nil
			})
		case 2 * every:
			// The loop awaited the slow write just before this call.
			idleAfterAwait = param.IsIdle(saved)
		}
		return nil
	}
	cfg.OnRound = func(s RoundStats) {
		if s.Round == every-1+slow {
			close(gate)
		}
	}
	m := fakeMethod(addRoundTrainer{})
	sim, err := NewSimulator(cfg, m, testClients(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mutated {
		t.Fatal("the global a slow write read changed while later rounds ran")
	}
	if !idleAfterAwait {
		t.Fatal("the slow write's global was not back in the pool after the wait that saw the write return")
	}
}

// TestCheckpointStateIsImmutableView pins the hand-off's shape: prefixes
// whose capacity stops at their length (appending to a retained state can
// never write into the loop's storage) and a cost that does not grow with
// the round number.
func TestCheckpointStateIsImmutableView(t *testing.T) {
	const rounds = 1000
	clients := testClients(t, 6)
	var at10, at1000 uint64
	var ms runtime.MemStats
	cfg := SimConfig{Rounds: rounds, ClientsPerRound: 2, Seed: 5, Parallelism: 1}
	cfg.OnCheckpoint = func(st *SimState) error {
		if cap(st.History) != len(st.History) || cap(st.EligibleCounts) != len(st.EligibleCounts) {
			t.Errorf("round %d: view capacity %d/%d beyond its length %d", st.Round, cap(st.History), cap(st.EligibleCounts), len(st.History))
		}
		if err := st.Validate(rounds); err != nil {
			t.Errorf("round %d: %v", st.Round, err)
		}
		return st.Defer(func() error { return nil })
	}
	// Allocation between a round's close and its OnRound is the hand-off
	// (plus the previous write's wait): read the counter at both ends.
	var closed uint64
	m := fakeMethod(&fakeTrainer{})
	m.Aggregator = closeMark{func() { runtime.ReadMemStats(&ms); closed = ms.TotalAlloc }}
	cfg.OnRound = func(s RoundStats) {
		runtime.ReadMemStats(&ms)
		switch s.Round + 1 {
		case 10:
			at10 = ms.TotalAlloc - closed
		case rounds:
			at1000 = ms.TotalAlloc - closed
		}
	}
	sim, err := NewSimulator(cfg, m, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if at1000 > at10+512 {
		t.Errorf("hand-off allocated %d B at round 10 and %d B at round %d: it grows with the history", at10, at1000, rounds)
	}
}

// closeMark is FedAvg that reports when a round's aggregate is finished.
type closeMark struct{ mark func() }

func (c closeMark) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	out, err := WeightedAverage{}.Aggregate(global, updates)
	c.mark()
	return out, err
}
