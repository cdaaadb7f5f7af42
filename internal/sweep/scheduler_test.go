package sweep

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calibre/internal/experiments"
)

// stripVolatile zeroes the fields that legitimately differ between two
// executions of the same cell (wall clock, provenance), leaving exactly
// the determinism contract.
func stripVolatile(cells []CellResult) []CellResult {
	out := append([]CellResult(nil), cells...)
	for i := range out {
		out[i].DurationMS = 0
		out[i].FromManifest = false
	}
	return out
}

// renderReport renders the full report artifact set (markdown + both
// CSVs) to one byte string for bit-identity comparisons.
func renderReport(t *testing.T, res *Result) string {
	t.Helper()
	rep := NewReport(res)
	var b bytes.Buffer
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	if err := rep.WriteCellsCSV(&b); err != nil {
		t.Fatalf("WriteCellsCSV: %v", err)
	}
	if err := rep.WriteMethodsCSV(&b); err != nil {
		t.Fatalf("WriteMethodsCSV: %v", err)
	}
	return b.String()
}

// TestSchedulerDeterminismAcrossWorkerCounts is the scheduler-order
// independence pin: the same grid run with 1 worker and with 4 workers
// (different completion interleavings) produces bit-identical per-cell
// summaries and a byte-identical report.
func TestSchedulerDeterminismAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	serial, err := Run(context.Background(), g, Config{Workers: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, err := Run(context.Background(), g, Config{Workers: 4})
	if err != nil {
		t.Fatalf("workers=4: %v", err)
	}
	if len(serial.Cells) != 12 || len(parallel.Cells) != 12 {
		t.Fatalf("cell counts: %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	a, b := stripVolatile(serial.Cells), stripVolatile(parallel.Cells)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %s differs between worker counts:\n%+v\nvs\n%+v", a[i].Key, a[i], b[i])
		}
	}
	if ra, rb := renderReport(t, serial), renderReport(t, parallel); ra != rb {
		t.Fatal("reports are not byte-identical across worker counts")
	}
	for _, c := range a {
		if c.Status != StatusOK {
			t.Fatalf("cell failed: %+v", c)
		}
		if c.Participants.N == 0 || c.Rounds == 0 {
			t.Fatalf("cell has empty summary: %+v", c)
		}
	}
}

// TestSchedulerPanicIsolation injects a panic into one cell's environment
// construction; the cell must be recorded as a typed failure while every
// other cell completes and the sweep returns normally.
func TestSchedulerPanicIsolation(t *testing.T) {
	g := &Grid{
		Methods:  []string{"fedavg"},
		Settings: []string{"cifar10-q(2,500)"},
		Seeds:    []int64{1, 2, 3},
	}
	poison := Cell{Method: "fedavg", Setting: "cifar10-q(2,500)", Scale: experiments.ScaleSmoke, Seed: 2, Straggler: "requeue"}.EnvSeed()
	cfg := Config{
		Workers: 2,
		buildEnv: func(w experiments.Scenario) (*experiments.Environment, error) {
			if w.Seed == poison {
				panic("injected environment panic")
			}
			return w.Environment()
		},
	}
	res, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var failed, ok int
	for _, c := range res.Cells {
		switch c.Status {
		case StatusOK:
			ok++
		case StatusFailed:
			failed++
			if !c.Panicked || !strings.Contains(c.Error, "injected environment panic") {
				t.Fatalf("panic not recorded as typed failure: %+v", c)
			}
		}
	}
	if ok != 2 || failed != 1 {
		t.Fatalf("expected 2 ok + 1 failed, got %d ok + %d failed", ok, failed)
	}
}

// TestSchedulerClientGoroutinePanicIsolated drives a panic through the
// deepest path — inside fl's client-training goroutines — and checks it
// surfaces as a Panicked cell failure, not a process crash.
func TestSchedulerClientGoroutinePanicIsolated(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	cfg := Config{
		buildEnv: func(w experiments.Scenario) (*experiments.Environment, error) {
			env, err := w.Environment()
			if err != nil {
				return nil, err
			}
			// Poison a client's training set so the trainer indexes out of
			// bounds inside its goroutine: labels shorter than samples make
			// any batch beyond index 0 panic on label access.
			env.Participants[0].Train.Y = env.Participants[0].Train.Y[:1]
			return env, nil
		},
	}
	res, err := Run(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := res.Cells[0]
	if c.Status != StatusFailed || !c.Panicked {
		t.Fatalf("client panic not isolated into a typed failure: %+v", c)
	}
}

// TestSchedulerCellTimeout pins the per-cell deadline: an overrunning
// cell is recorded as failed with the deadline error and the sweep
// continues.
func TestSchedulerCellTimeout(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1}}
	res, err := Run(context.Background(), g, Config{CellTimeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := res.Cells[0]
	if c.Status != StatusFailed || !strings.Contains(c.Error, "deadline") {
		t.Fatalf("timeout not recorded: %+v", c)
	}
}

// TestSchedulerBudgetSplit checks the two-level budget arithmetic.
func TestSchedulerBudgetSplit(t *testing.T) {
	s := &sweeper{cfg: Config{Workers: 4, SimBudget: 8}, simPar: max(1, 8/4)}
	if s.simPar != 2 {
		t.Fatalf("8-budget over 4 workers should give 2, got %d", s.simPar)
	}
	if got := max(1, 2/4); got != 1 {
		t.Fatalf("budget floor broken: %d", got)
	}
}

// TestSchedulerObservers checks OnCellStart/OnCell fire once per cell.
func TestSchedulerObservers(t *testing.T) {
	g := &Grid{Methods: []string{"fedavg"}, Settings: []string{"cifar10-q(2,500)"}, Seeds: []int64{1, 2}}
	var started, done atomic.Int64
	_, err := Run(context.Background(), g, Config{
		Workers:     2,
		OnCellStart: func(Cell) { started.Add(1) },
		OnCell:      func(CellResult) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 2 || done.Load() != 2 {
		t.Fatalf("observers fired %d/%d times, want 2/2", started.Load(), done.Load())
	}
}
