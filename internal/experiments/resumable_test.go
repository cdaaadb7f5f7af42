package experiments

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"calibre/internal/baselines"
	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/store"
)

// TestRunMethodResumable: a fresh resumable run checkpoints every round;
// re-running over the same store resumes from the terminal snapshot —
// replaying zero training — and reproduces the outcome bit-for-bit.
func TestRunMethodResumable(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 17)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	dir := t.TempDir()
	ckpt, err := store.Open(dir) // a second handle, to inspect what the runs wrote
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	ctx := context.Background()

	first, err := RunMethodResumable(ctx, env, "fedavg-ft", dir, 1)
	if err != nil {
		t.Fatalf("fresh resumable run: %v", err)
	}
	versions, err := ckpt.Versions()
	if err != nil || len(versions) != env.Preset.Rounds {
		t.Fatalf("Versions = %v (%v), want one per round (%d)", versions, err, env.Preset.Rounds)
	}

	second, err := RunMethodResumable(ctx, env, "fedavg-ft", dir, 1)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(second.Global) != len(first.Global) {
		t.Fatalf("global lengths differ: %d vs %d", len(second.Global), len(first.Global))
	}
	for i := range second.Global {
		if math.Float64bits(second.Global[i]) != math.Float64bits(first.Global[i]) {
			t.Fatalf("global[%d] differs on resume: %x vs %x", i, second.Global[i], first.Global[i])
		}
	}
	if !reflect.DeepEqual(second.History, first.History) {
		t.Fatal("history differs on resume")
	}
	if !reflect.DeepEqual(second.Participants.Accs, first.Participants.Accs) {
		t.Fatal("personalized accuracies differ on resume")
	}

	// A differently-configured process must be refused, not silently
	// resumed into divergence — whether the drift is the method…
	if _, err := RunMethodResumable(ctx, env, "fedavg", dir, 1); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	// …or a training-affecting preset knob.
	drifted, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 17)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	drifted.Preset.LocalEpochs++
	if _, err := RunMethodResumable(ctx, drifted, "fedavg-ft", dir, 1); err == nil {
		t.Fatal("preset drift accepted")
	}

	// A shrunken round budget must refuse the newer checkpoint loudly
	// rather than silently retraining from scratch into the same store.
	shrunk, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 17)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	shrunk.Preset.Rounds = 1
	if _, err := RunMethodResumable(ctx, shrunk, "fedavg-ft", dir, 1); err == nil {
		t.Fatal("checkpoint beyond the round budget accepted")
	}
}

// TestResumeMidRunBitIdenticalRealMethods kills every registry method but
// SCAFFOLD at each round boundary and resumes it in a fresh "process" (a new
// method instance, its client table read back from the snapshot on disk):
// the finished run must be bit-identical to an uninterrupted one — final
// global, history, participant and novel-client accuracies. This pins both
// the cache-warmth RNG invariance (a row built on first contact takes the
// draw a known client's does) and that a client's cross-round state is all
// in its row.
func TestResumeMidRunBitIdenticalRealMethods(t *testing.T) {
	const total = 4
	for _, method := range baselines.MethodNames() {
		if method == "scaffold" || method == "scaffold-ft" {
			continue // refused: TestRunMethodResumableRefusesStatefulMethods
		}
		t.Run(method, func(t *testing.T) {
			build := func(rounds int) *Environment {
				env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 23)
				if err != nil {
					t.Fatalf("BuildEnvironment: %v", err)
				}
				env.Preset.Rounds = rounds
				return env
			}
			ref, err := RunMethod(context.Background(), build(total), method)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			dir := t.TempDir()
			var got *MethodOutcome
			for rounds := 1; rounds <= total; rounds++ {
				if got, err = RunMethodResumable(context.Background(), build(rounds), method, dir, 1); err != nil {
					t.Fatalf("run to round %d: %v", rounds, err)
				}
			}

			for i := range ref.Global {
				if math.Float64bits(got.Global[i]) != math.Float64bits(ref.Global[i]) {
					t.Fatalf("global[%d] differs after resuming at every round: %x vs %x", i, got.Global[i], ref.Global[i])
				}
			}
			if !reflect.DeepEqual(got.History, ref.History) {
				t.Fatal("history differs after resuming at every round")
			}
			if !reflect.DeepEqual(got.Participants.Accs, ref.Participants.Accs) {
				t.Fatal("personalized accuracies differ after resuming at every round")
			}
			if len(ref.Novel.Accs) == 0 || !reflect.DeepEqual(got.Novel.Accs, ref.Novel.Accs) {
				t.Fatalf("novel-client accuracies %v after resuming at every round, %v uninterrupted", got.Novel.Accs, ref.Novel.Accs)
			}
		})
	}
}

// TestRunMethodResumableRefusesStatefulMethods: SCAFFOLD's server control
// variate lives in its aggregator, outside any snapshot, so resuming it is
// refused upfront — before any training, and before any never-resumable
// snapshot lands in the store.
func TestRunMethodResumableRefusesStatefulMethods(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 17)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	dir := t.TempDir()
	for _, method := range []string{"scaffold", "scaffold-ft"} {
		if _, err := RunMethodResumable(context.Background(), env, method, dir, 1); !errors.Is(err, fl.ErrStatefulResume) {
			t.Errorf("%s: err = %v, want fl.ErrStatefulResume", method, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory not left empty: entries=%v err=%v", entries, err)
	}
}

// TestResumeRefusesMalformedRows: a snapshot's client rows are input from
// outside the program. A row cut short, or a MoCo row whose queue fill
// count is past QueueSize, read back from disk must fail the resumed run
// with an error, not a panic inside a trainer (which the simulator would
// recover as an fl.PanicError).
func TestResumeRefusesMalformedRows(t *testing.T) {
	shorten := func(row param.Vector) param.Vector { return row[:len(row)-1] }
	cases := []struct {
		method string
		tamper func(param.Vector) param.Vector
	}{
		{"ditto", shorten},
		{"fedper", shorten},
		{"fedema", shorten},
		{"fedema", func(row param.Vector) param.Vector { return row[:1] }},
		{"calibre-byol", shorten},
		{"calibre-mocov2", shorten},
		{"calibre-mocov2", func(row param.Vector) param.Vector { row[len(row)-1] = 1e9; return row }},
	}
	for _, tc := range cases {
		build := func(rounds int) *Environment {
			env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 29)
			if err != nil {
				t.Fatalf("BuildEnvironment: %v", err)
			}
			env.Preset.Rounds, env.Preset.ClientsPerRound = rounds, env.Preset.Clients // every client trains every round
			return env
		}
		dir := t.TempDir()
		if _, err := RunMethodResumable(context.Background(), build(1), tc.method, dir, 1); err != nil {
			t.Fatalf("%s: first round: %v", tc.method, err)
		}
		ckpt, err := store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		snap, _, err := ckpt.Latest()
		if err != nil || len(snap.State.Rows) == 0 {
			t.Fatalf("%s: latest snapshot has %d rows (err %v), want some", tc.method, len(snap.State.Rows), err)
		}
		for id, row := range snap.State.Rows {
			snap.State.Rows[id] = tc.tamper(row)
		}
		if _, err := ckpt.Save(snap); err != nil {
			t.Fatalf("%s: save tampered snapshot: %v", tc.method, err)
		}
		_, err = RunMethodResumable(context.Background(), build(2), tc.method, dir, 1)
		var panicked *fl.PanicError
		switch {
		case err == nil:
			t.Errorf("%s: resumed from malformed rows without an error", tc.method)
		case errors.As(err, &panicked):
			t.Errorf("%s: malformed rows panicked a trainer: %v", tc.method, err)
		}
	}
}
