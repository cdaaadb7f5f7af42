package experiments

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"calibre/internal/fl"
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

// TestResumeMidRunBitIdenticalRealMethods interrupts real methods halfway
// and resumes them in a fresh "process" (new method instance, cold
// per-client model caches): the finished run must be bit-identical to an
// uninterrupted one. This pins the trainers' cache-warmth RNG invariance —
// lazily constructed client state must not shift the training RNG stream —
// for both the supervised (supBase) and SSL (core.SSLTrainer) paths.
func TestResumeMidRunBitIdenticalRealMethods(t *testing.T) {
	const total, cut = 4, 2
	for _, method := range []string{"fedavg-ft", "calibre-simclr"} {
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
			if _, err := RunMethodResumable(context.Background(), build(cut), method, dir, 1); err != nil {
				t.Fatalf("interrupted run: %v", err)
			}
			got, err := RunMethodResumable(context.Background(), build(total), method, dir, 1)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			for i := range ref.Global {
				if math.Float64bits(got.Global[i]) != math.Float64bits(ref.Global[i]) {
					t.Fatalf("global[%d] differs after mid-run resume: %x vs %x", i, got.Global[i], ref.Global[i])
				}
			}
			if !reflect.DeepEqual(got.History, ref.History) {
				t.Fatal("history differs after mid-run resume")
			}
			if !reflect.DeepEqual(got.Participants.Accs, ref.Participants.Accs) {
				t.Fatal("personalized accuracies differ after mid-run resume")
			}
		})
	}
}

// TestRunMethodResumableRefusesStatefulMethods: methods whose clients
// carry cross-round state a snapshot cannot capture must be refused
// upfront — before any training, and before any never-resumable snapshot
// lands in the store.
func TestRunMethodResumableRefusesStatefulMethods(t *testing.T) {
	env, err := BuildEnvironment(settingCIFAR10Q(), ScaleSmoke, 17)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	dir := t.TempDir()
	for _, method := range []string{"fedema", "scaffold", "fedrep", "apfl", "calibre-byol", "pfl-mocov2"} {
		if _, err := RunMethodResumable(context.Background(), env, method, dir, 1); !errors.Is(err, fl.ErrStatefulResume) {
			t.Errorf("%s: err = %v, want fl.ErrStatefulResume", method, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory not left empty: entries=%v err=%v", entries, err)
	}
}
