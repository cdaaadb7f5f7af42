package fl

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// runToCompletion runs a fresh simulator over the fake method and returns
// its outcome, failing the test on error.
func runToCompletion(t *testing.T, cfg SimConfig) ([]float64, []RoundStats) {
	t.Helper()
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, history, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return global, history
}

// stressedConfig exercises every RNG-consuming path the resume replay has
// to reproduce: dropout draws, quorum refills and StragglerDrop evictions.
func stressedConfig(rounds int) SimConfig {
	return SimConfig{
		Rounds:          rounds,
		ClientsPerRound: 4,
		Seed:            99,
		DropoutRate:     0.45,
		Quorum:          2,
		Straggler:       StragglerDrop,
	}
}

// TestCheckpointCadence pins the stride contract: with CheckpointEvery=2
// over 5 rounds, states are emitted after rounds 2, 4 and (final) 5.
func TestCheckpointCadence(t *testing.T) {
	var rounds []int
	cfg := SimConfig{
		Rounds: 5, ClientsPerRound: 2, Seed: 1,
		CheckpointEvery: 2,
		OnCheckpoint: func(st *SimState) error {
			rounds = append(rounds, st.Round)
			if err := st.Validate(5); err != nil {
				t.Errorf("checkpoint state invalid: %v", err)
			}
			return nil
		},
	}
	runToCompletion(t, cfg)
	if want := []int{2, 4, 5}; !reflect.DeepEqual(rounds, want) {
		t.Fatalf("checkpoint rounds = %v, want %v", rounds, want)
	}
}

// TestResumeBitIdenticalToUninterrupted is the determinism gate for the
// simulator: checkpoint at round k, build a brand-new simulator resuming
// from that state, and the final global vector and history must be
// bit-identical to a run that never stopped — under a config that stresses
// dropout, quorum refill and population eviction.
func TestResumeBitIdenticalToUninterrupted(t *testing.T) {
	const total, cut = 7, 3
	refGlobal, refHistory := runToCompletion(t, stressedConfig(total))

	// Phase 1: run only `cut` rounds, capturing the terminal checkpoint.
	var at *SimState
	cfgA := stressedConfig(cut)
	cfgA.OnCheckpoint = func(st *SimState) error { at = st; return nil }
	runToCompletion(t, cfgA)
	if at == nil || at.Round != cut {
		t.Fatalf("no terminal checkpoint at round %d: %+v", cut, at)
	}

	// Phase 2: a fresh process resumes from the snapshot and finishes.
	cfgB := stressedConfig(total)
	cfgB.ResumeFrom = at
	gotGlobal, gotHistory := runToCompletion(t, cfgB)

	if len(gotGlobal) != len(refGlobal) {
		t.Fatalf("global length %d vs %d", len(gotGlobal), len(refGlobal))
	}
	for i := range gotGlobal {
		if math.Float64bits(gotGlobal[i]) != math.Float64bits(refGlobal[i]) {
			t.Fatalf("global[%d] differs after resume: %x vs %x", i, gotGlobal[i], refGlobal[i])
		}
	}
	if !reflect.DeepEqual(gotHistory, refHistory) {
		t.Fatalf("history differs after resume:\n%+v\nvs\n%+v", gotHistory, refHistory)
	}
}

// TestResumeValidation covers the typed rejections of malformed or
// mismatched resume states.
func TestResumeValidation(t *testing.T) {
	good := func() *SimState {
		return &SimState{
			Round:          1,
			Global:         []float64{0, 0, 0, 0},
			History:        []RoundStats{{Round: 0, Participants: []int{0, 1}}},
			EligibleCounts: []int{6},
		}
	}
	base := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 1}
	for name, mutate := range map[string]func(*SimState){
		"round beyond budget":     func(st *SimState) { st.Round = 9 },
		"negative round":          func(st *SimState) { st.Round = -1 },
		"empty global":            func(st *SimState) { st.Global = nil },
		"history length mismatch": func(st *SimState) { st.History = nil },
		"counts length mismatch":  func(st *SimState) { st.EligibleCounts = nil },
		"non-positive pool":       func(st *SimState) { st.EligibleCounts = []int{0} },
	} {
		st := good()
		mutate(st)
		cfg := base
		cfg.ResumeFrom = st
		if _, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Dimension and pool-size mismatches surface at Run time.
	st := good()
	st.Global = []float64{1} // method initializes 4 params
	cfg := base
	cfg.ResumeFrom = st
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err == nil {
		t.Fatal("param dimension mismatch accepted")
	}
	st = good()
	st.EligibleCounts = []int{3} // population is 6
	cfg.ResumeFrom = st
	sim, err = NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err == nil {
		t.Fatal("pool-size drift accepted")
	}
}

// TestCheckpointErrorAborts: a failing sink must abort the run, not be
// silently ignored.
func TestCheckpointErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	cfg := SimConfig{
		Rounds: 3, ClientsPerRound: 2, Seed: 1,
		OnCheckpoint: func(*SimState) error { return boom },
	}
	sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), testClients(t, 6))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

// TestCheckpointDue pins the stride helper.
func TestCheckpointDue(t *testing.T) {
	cases := []struct {
		completed, every, total int
		want                    bool
	}{
		{1, 0, 5, true}, // every ≤0 means every round
		{1, 2, 5, false},
		{2, 2, 5, true},
		{5, 2, 5, true}, // final round always due
		{5, 3, 5, true},
		{4, 3, 5, false},
	}
	for _, c := range cases {
		if got := CheckpointDue(c.completed, c.every, c.total); got != c.want {
			t.Errorf("CheckpointDue(%d,%d,%d) = %v, want %v", c.completed, c.every, c.total, got, c.want)
		}
	}
}

// statefulTrainer is a fakeTrainer that additionally declares (or
// explicitly disclaims) cross-round state via the Stateful interface.
type statefulTrainer struct {
	fakeTrainer
	carries bool
}

func (s *statefulTrainer) CarriesRoundState() bool { return s.carries }

// TestResumeRefusesStatefulMethods: a method whose trainer or aggregator
// declares cross-round state must be refused at ResumeFrom with the typed
// ErrStatefulResume — a cold process cannot reconstruct that state, so
// resuming would silently diverge. Checkpointing without resume stays
// allowed (snapshots remain inspectable and exportable).
func TestResumeRefusesStatefulMethods(t *testing.T) {
	resumeState := func() *SimState {
		return &SimState{
			Round:          1,
			Global:         []float64{0, 0, 0, 0},
			History:        []RoundStats{{Round: 0, Participants: []int{0, 1}}},
			EligibleCounts: []int{6},
		}
	}
	cfg := SimConfig{Rounds: 3, ClientsPerRound: 2, Seed: 1, ResumeFrom: resumeState()}

	if _, err := NewSimulator(cfg, fakeMethod(&statefulTrainer{carries: true}), testClients(t, 6)); !errors.Is(err, ErrStatefulResume) {
		t.Fatalf("stateful trainer: err = %v, want ErrStatefulResume", err)
	}
	// Implementing Stateful with false is an explicit stateless declaration.
	if _, err := NewSimulator(cfg, fakeMethod(&statefulTrainer{carries: false}), testClients(t, 6)); err != nil {
		t.Fatalf("stateless-declaring trainer refused: %v", err)
	}
	// Aggregator-side state: SCAFFOLD's server control variate.
	m := fakeMethod(&fakeTrainer{})
	m.Aggregator = &ScaffoldAggregator{ServerLR: 1}
	if _, err := NewSimulator(cfg, m, testClients(t, 6)); !errors.Is(err, ErrStatefulResume) {
		t.Fatalf("stateful aggregator: err = %v, want ErrStatefulResume", err)
	}
	if Resumable(m) {
		t.Fatal("Resumable reported true for a scaffold-aggregated method")
	}

	cfg.ResumeFrom = nil
	cfg.OnCheckpoint = func(*SimState) error { return nil }
	if _, err := NewSimulator(cfg, fakeMethod(&statefulTrainer{carries: true}), testClients(t, 6)); err != nil {
		t.Fatalf("checkpointing a stateful method (no resume) refused: %v", err)
	}
}
