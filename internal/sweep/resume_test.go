package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/store"
)

// executed counts the cells a run executed rather than restored from its
// manifest.
func executed(res *Result) int {
	n := 0
	for _, c := range res.Cells {
		if !c.FromManifest {
			n++
		}
	}
	return n
}

// TestKillResumeBitIdentical is the crash-recovery acceptance pin: a
// sweep aborted mid-flight (the manifest-level analogue of a SIGKILL —
// completed cells persisted, the in-flight one lost) resumes by skipping
// finished cells, and the final report is byte-identical to an
// uninterrupted run's.
func TestKillResumeBitIdentical(t *testing.T) {
	g := testGrid()

	// Reference: uninterrupted run.
	clean, err := Run(context.Background(), g, Config{Workers: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	cleanReport := renderReport(t, clean)

	// Interrupted run: cancel the sweep after 5 completed cells.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	_, err = Run(ctx, g, Config{
		Workers: 2,
		Dir:     dir,
		OnCell: func(CellResult) {
			if done.Add(1) == 5 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("canceled sweep reported success")
	}
	man, err := loadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatalf("manifest after kill: %v", err)
	}
	killed := len(man.Cells)
	if killed == 0 || killed >= 12 {
		t.Fatalf("kill left %d cells in the manifest, want a strict subset", killed)
	}

	// Resume: completed cells must be skipped, the rest executed.
	resumed, err := Run(context.Background(), g, Config{Workers: 2, Dir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := executed(resumed); got != 12-killed {
		t.Fatalf("resume executed %d cells, want %d (12 planned - %d completed)", got, 12-killed, killed)
	}
	restored := 0
	for _, c := range resumed.Cells {
		if c.FromManifest {
			restored++
		}
	}
	if restored != killed {
		t.Fatalf("resume restored %d cells from the manifest, want %d", restored, killed)
	}
	if got := renderReport(t, resumed); got != cleanReport {
		t.Fatal("resumed report is not byte-identical to the uninterrupted run")
	}

	// A second resume is a no-op: everything restored, nothing executed.
	again, err := Run(context.Background(), g, Config{Dir: dir, Resume: true})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if n := executed(again); n != 0 {
		t.Fatalf("fully-complete sweep re-executed %d cells", n)
	}
	if got := renderReport(t, again); got != cleanReport {
		t.Fatal("no-op resume changed the report")
	}
}

// TestCorruptManifestFallsBackToReplan: a torn/garbage manifest must not
// crash a resume — the sweep re-plans the full grid and completes.
func TestCorruptManifestFallsBackToReplan(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1, 2}}
	for _, garbage := range []string{"", "{torn", `{"schema":"calibre/other/v9","cells":{}}`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), g, Config{Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("resume over corrupt manifest %q: %v", garbage, err)
		}
		if n := executed(res); n != 2 {
			t.Fatalf("corrupt manifest %q: re-plan executed %d cells, want 2", garbage, n)
		}
		found := false
		for _, n := range res.Notes {
			found = found || strings.Contains(n, "re-planning")
		}
		if !found {
			t.Fatalf("re-plan not noted: %v", res.Notes)
		}
	}
}

// TestManifestMismatchRefused: resuming a directory that belongs to a
// different grid must fail loudly, not silently mix results.
func TestManifestMismatchRefused(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1, 2}}
	_, err := Run(context.Background(), other, Config{Dir: dir, Resume: true})
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("want ErrManifestMismatch, got %v", err)
	}
	if _, err := Load(other, dir); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("Load: want ErrManifestMismatch, got %v", err)
	}
}

// TestFreshRunRefusesExistingManifest: without Resume, an existing
// manifest is a guardrail error — starting over would discard work.
func TestFreshRunRefusesExistingManifest(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	dir := t.TempDir()
	if _, err := Run(context.Background(), g, Config{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), g, Config{Dir: dir}); !errors.Is(err, ErrManifestExists) {
		t.Fatalf("want ErrManifestExists, got %v", err)
	}
}

// TestFailedCellsRetriedOnResume: failed outcomes are not sticky — a
// resume re-executes them.
func TestFailedCellsRetriedOnResume(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1, 2}}
	dir := t.TempDir()
	poison := Cell{Method: "fedavg", Setting: "cifar10-q(2,500)", Scale: experiments.ScaleSmoke, Seed: 2, Straggler: "requeue"}.EnvSeed()
	blowUp := func(w experiments.Scenario) (*experiments.Environment, error) {
		if w.Seed == poison {
			panic("flaky infrastructure")
		}
		return w.Environment()
	}
	res, err := Run(context.Background(), g, Config{Dir: dir, buildEnv: blowUp})
	if err != nil {
		t.Fatal(err)
	}
	if len(NewReport(res).Failures) != 1 {
		t.Fatalf("expected 1 failure, got %+v", res.Cells)
	}
	res, err = Run(context.Background(), g, Config{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := executed(res); n != 1 {
		t.Fatalf("resume executed %d cells, want exactly the failed one", n)
	}
	for _, c := range res.Cells {
		if c.Status != StatusOK {
			t.Fatalf("retried cell still failed: %+v", c)
		}
	}
}

// TestPerCellCheckpointResume pins the mid-cell crash path: a cell killed
// mid-federation leaves round snapshots in its per-cell store, and the
// sweep continues that federation from the checkpoint instead of round 0
// — observable as strictly increasing snapshot rounds across the
// kill/resume boundary, with the final summaries bit-identical to an
// uninterrupted in-memory run.
func TestPerCellCheckpointResume(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg-ft"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cell := cells[0]
	dir := t.TempDir()

	// Simulate a kill mid-cell: run the cell's federation directly, with
	// the sweep's per-cell store wiring, canceling inside the second
	// checkpoint hand-off. The hook only hands the save to the round loop,
	// so at the cancel version 2 is not written yet — what makes round 2 the
	// resume point is that the loop drains the accepted write before Run
	// returns: onSaved has reported both versions by then, in order.
	settings := experiments.Settings()
	env, err := experiments.BuildEnvironment(settings[cell.Setting], cell.Scale, cell.EnvSeed())
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.BuildMethod(env, cell.Method)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := store.Open(filepath.Join(dir, "cells", cell.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var durable []int // onSaved runs on the checkpoint goroutine; read after Run
	save := ck.SaveHook(store.Meta{Seed: env.Seed, Fingerprint: cell.Fingerprint(), Runtime: "sweep"},
		func(v int, st *fl.SimState) { durable = append(durable, st.Round) })
	handoffs := 0
	_, err = experiments.RunBuiltMethodWith(ctx, env, m, func(cfg *fl.SimConfig) {
		cfg.CheckpointEvery = 1
		cfg.OnCheckpoint = func(st *fl.SimState) error {
			if err := save(st); err != nil {
				return err
			}
			if handoffs++; handoffs == 2 {
				cancel()
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-cell kill: err = %v, want context.Canceled", err)
	}
	if len(durable) != 2 || durable[0] != 1 || durable[1] != 2 {
		t.Fatalf("versions durable when Run returned: rounds %v, want [1 2]", durable)
	}
	snap, _, err := ck.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.State.Round != 2 {
		t.Fatalf("kill left checkpoint at round %d, want 2", snap.State.Round)
	}

	// The sweep now runs the cell with checkpointing on: it must resume
	// from round 2, appending snapshots for rounds 3..N only.
	res, err := Run(context.Background(), g, Config{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Status != StatusOK || !res.Cells[0].Checkpointed {
		t.Fatalf("checkpointed cell outcome: %+v", res.Cells[0])
	}
	entries, err := ck.List()
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]int, 0, len(entries))
	for _, e := range entries {
		rounds = append(rounds, e.Round)
	}
	want := []int{1, 2, 3, 4} // 2 pre-kill + continuation; a restart would re-write rounds 1,2
	if len(rounds) != len(want) {
		t.Fatalf("snapshot rounds %v, want %v", rounds, want)
	}
	for i := range want {
		if rounds[i] != want[i] {
			t.Fatalf("snapshot rounds %v, want %v (cell restarted instead of resuming)", rounds, want)
		}
	}

	// Bit-identity with a run that never checkpointed or crashed.
	clean, err := Run(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Cells[0].Participants != res.Cells[0].Participants {
		t.Fatalf("resumed cell diverged:\n%+v\nvs\n%+v", res.Cells[0].Participants, clean.Cells[0].Participants)
	}

	// A snapshot past the cell's round budget is refused by the round
	// core, and the cell reports the refusal instead of retraining.
	snap.State.Round = 9
	if _, err := ck.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), g, Config{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Cells[0]; c.Status == StatusOK || !strings.Contains(c.Error, "round budget") {
		t.Fatalf("checkpoint beyond the round budget: %+v", c)
	}
}

// TestStatefulMethodRefusesCheckpointCleanly: methods carrying
// cross-round state run uncheckpointed with an explanatory note instead
// of erroring or writing unusable snapshots.
func TestStatefulMethodRefusesCheckpointCleanly(t *testing.T) {
	g := &Grid{Methods: []string{"apfl"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	dir := t.TempDir()
	res, err := Run(context.Background(), g, Config{Dir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.Status != StatusOK {
		t.Fatalf("stateful cell failed: %+v", c)
	}
	if c.Checkpointed || !strings.Contains(c.Note, "checkpointing skipped") {
		t.Fatalf("stateful method was not cleanly refused: %+v", c)
	}
	if _, err := os.Stat(filepath.Join(dir, "cells")); !os.IsNotExist(err) {
		t.Fatalf("stateful cell left checkpoint stores behind: %v", err)
	}
}
