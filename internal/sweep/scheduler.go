package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/tensor"
	"calibre/internal/trace"
)

// Cell outcome statuses recorded in manifests and reports.
const (
	// StatusOK marks a cell that ran to completion; its summaries are
	// valid.
	StatusOK = "ok"
	// StatusFailed marks a cell that errored, panicked or timed out; its
	// Error field says why and its summaries are zero.
	StatusFailed = "failed"
)

// Config controls one sweep execution.
type Config struct {
	// Workers bounds how many cells (whole federated simulations) run
	// concurrently; <1 means 1. This is the outer level of the two-level
	// budget.
	Workers int
	// SimBudget is the total number of concurrent client-training
	// goroutines across all in-flight cells — the inner level. Each cell
	// runs its simulation with Parallelism = max(1, SimBudget/Workers).
	// <1 defaults to GOMAXPROCS.
	SimBudget int
	// CellTimeout bounds one cell's wall-clock time; an overrunning cell
	// is recorded as failed (context.DeadlineExceeded) and the sweep
	// moves on. 0 means unbounded.
	CellTimeout time.Duration
	// KernelWorkers, when >0, resizes the process-wide tensor kernel
	// pool once before the sweep starts. It is deliberately not a grid
	// axis: the pool is process-global, so per-cell values would race
	// across concurrent cells. Kernels are bit-identical at any pool
	// size, so this only affects throughput.
	KernelWorkers int
	// Dir is the sweep directory: the manifest lives at Dir/ManifestName
	// and per-cell checkpoint stores under Dir/cells/. Empty runs the
	// sweep in memory, with no durability and no resume.
	Dir string
	// Resume, with Dir set, skips cells the manifest records as ok and
	// retries failed ones. A corrupt or torn manifest falls back to a
	// full re-plan (noted in Result.Notes); a manifest from a different
	// grid fails with ErrManifestMismatch. Without Resume, an existing
	// manifest fails with ErrManifestExists.
	Resume bool
	// CheckpointEvery, when >0 with Dir set, threads per-cell durable
	// round checkpoints (stride CheckpointEvery) through fl's
	// OnCheckpoint/ResumeFrom machinery, so a killed sweep resumes long
	// cells mid-federation instead of from round 0. Methods that carry
	// cross-round state a snapshot cannot capture (fl.Stateful) run
	// uncheckpointed, with a note on their result.
	CheckpointEvery int
	// OnPlan, if set, is called once before execution starts with the
	// grid's planned cell count and the number of cells actually pending
	// after manifest restoration (planned minus restored).
	OnPlan func(planned, pending int)
	// OnCellStart, if set, observes each cell as a worker picks it up.
	// Callback invocations are serialized across workers.
	OnCellStart func(Cell)
	// OnCell, if set, observes each completed cell's outcome (serialized
	// across workers, after the outcome is durably recorded).
	OnCell func(CellResult)
	// Obs, if non-nil, receives live sweep observability: planned/pending/
	// in-flight cell gauges, done/failed/restored counters, and — because
	// the registry is threaded into every cell's simulation — the round
	// and uplink counters accumulating across cells. This is what
	// `calibre sweep watch` renders.
	Obs *obs.Registry
	// Recorder, if non-nil, receives flight-recorder events: each cell is
	// bracketed by cell_start/cell_end spans, and the cell's simulation
	// emits its round and client spans through a per-cell view
	// (Recorder.WithCell), so every event carries the cell key and cell
	// spans nest round spans unambiguously even with concurrent cells.
	// Nil disables tracing at zero cost.
	Recorder *trace.Recorder
	// Health, if non-nil, attaches a fresh health.Monitor with this
	// detector config to every cell's simulation. Verdicts land on the
	// cell's CellResult (HealthAlerts/HealthCritical/Suspects) and the
	// alert counters accumulate on Obs sweep-wide — the health line
	// `calibre sweep watch` renders. Purely observational: a monitored
	// sweep's cells are bit-identical to a bare sweep's.
	Health *health.Config

	// buildEnv stubs environment construction in tests; nil means
	// experiments.Scenario.Environment.
	buildEnv func(experiments.Scenario) (*experiments.Environment, error)
}

// CellResult is one cell's typed outcome — the manifest and report row.
type CellResult struct {
	Key  string `json:"key"`
	Cell Cell   `json:"cell"`
	// Status is StatusOK or StatusFailed.
	Status string `json:"status"`
	// Error carries the failure cause for StatusFailed cells.
	Error string `json:"error,omitempty"`
	// Panicked marks failures caused by a recovered panic (either inside
	// a client goroutine, via fl.PanicError, or anywhere in the cell).
	Panicked bool `json:"panicked,omitempty"`
	// Checkpointed reports that per-cell durable checkpoints were active.
	Checkpointed bool `json:"checkpointed,omitempty"`
	// Note records non-fatal decisions, e.g. checkpointing skipped for a
	// stateful method.
	Note string `json:"note,omitempty"`
	// Rounds is the number of federated rounds completed; FinalLoss the
	// last round's mean training loss.
	Rounds    int     `json:"rounds,omitempty"`
	FinalLoss float64 `json:"final_loss,omitempty"`
	// HealthAlerts/HealthCritical count the alerts the cell's health
	// monitor raised, and Suspects lists the client IDs it flagged as
	// suspected adversaries (ascending). All zero when Config.Health is
	// nil or the cell stayed healthy.
	HealthAlerts   int   `json:"health_alerts,omitempty"`
	HealthCritical int   `json:"health_critical,omitempty"`
	Suspects       []int `json:"suspects,omitempty"`
	// Participants and Novel summarize per-client accuracy for the two
	// cohorts (Novel.N == 0 when the preset has no novel clients).
	Participants eval.Summary `json:"participants"`
	Novel        eval.Summary `json:"novel"`
	// DurationMS is wall-clock; it never enters reports, so interrupted
	// and uninterrupted sweeps stay byte-identical there.
	DurationMS int64 `json:"duration_ms"`
	// FromManifest marks results restored by resume rather than executed
	// in this process. Not persisted.
	FromManifest bool `json:"-"`
}

// Result is a completed sweep: every planned cell's outcome in canonical
// key order, plus sweep-level notes.
type Result struct {
	Grid        Grid
	Fingerprint string
	// Cells holds one outcome per planned cell, sorted by Key.
	Cells []CellResult
	// Pending lists planned cell keys with no outcome yet; empty after a
	// completed Run, possibly non-empty from Load on a partial sweep.
	Pending []string
	// Notes records sweep-level events (manifest fallback decisions).
	Notes []string
}

// sweeper carries one Run's resolved state.
type sweeper struct {
	cfg    Config
	simPar int
}

// Run executes the grid under cfg. It returns when every pending cell
// has an outcome (failed cells do not abort the sweep — they are typed
// records in the result) or when ctx is canceled, in which case the
// manifest still holds every cell completed so far and a later Resume
// picks up from there.
func Run(ctx context.Context, g *Grid, cfg Config) (*Result, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.SimBudget < 1 {
		cfg.SimBudget = runtime.GOMAXPROCS(0)
	}
	if cfg.KernelWorkers > 0 {
		tensor.SetWorkers(cfg.KernelWorkers)
	}
	s := &sweeper{cfg: cfg}

	outcomes := make(map[string]CellResult, len(cells))
	var notes []string
	var man *manifest
	manPath := ""
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: create %s: %w", cfg.Dir, err)
		}
		manPath = filepath.Join(cfg.Dir, ManifestName)
		prev, err := loadManifest(manPath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Fresh directory.
		case errors.Is(err, ErrManifestCorrupt):
			if !cfg.Resume {
				return nil, fmt.Errorf("%w: %s", ErrManifestExists, manPath)
			}
			notes = append(notes, fmt.Sprintf("manifest unusable (%v); re-planning the full grid", err))
		case err != nil:
			return nil, err
		case !cfg.Resume:
			return nil, fmt.Errorf("%w: %s", ErrManifestExists, manPath)
		case prev.Fingerprint != fp:
			return nil, fmt.Errorf("%w: manifest fingerprint %s, grid %s", ErrManifestMismatch, prev.Fingerprint, fp)
		default:
			planned := make(map[string]bool, len(cells))
			for _, c := range cells {
				planned[c.Key()] = true
			}
			restored, retried := 0, 0
			for key, res := range prev.Cells {
				if !planned[key] {
					continue
				}
				if res.Status == StatusOK {
					res.FromManifest = true
					outcomes[key] = res
					restored++
				} else {
					retried++
				}
			}
			notes = append(notes, fmt.Sprintf("resumed: %d cells restored from manifest, %d failed cells retried", restored, retried))
		}
		man = &manifest{Schema: manifestSchema, Name: g.Name, Fingerprint: fp, Cells: map[string]CellResult{}}
		for key, res := range outcomes {
			man.Cells[key] = res
		}
		if err := man.save(manPath); err != nil {
			return nil, err
		}
	}

	var pending []Cell
	for _, c := range cells {
		if _, done := outcomes[c.Key()]; !done {
			pending = append(pending, c)
		}
	}

	if cfg.OnPlan != nil {
		cfg.OnPlan(len(cells), len(pending))
	}
	cfg.Obs.Gauge(obs.GaugeSweepCellsPlanned).Set(int64(len(cells)))
	cfg.Obs.Gauge(obs.GaugeSweepCellsPending).Set(int64(len(pending)))
	cfg.Obs.Counter(obs.CounterSweepCellsRestored).Add(int64(len(outcomes)))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		cbMu    sync.Mutex // serializes OnCellStart/OnCell across workers
		saveErr error
		wg      sync.WaitGroup
	)
	feed := make(chan Cell)
	// Fewer pending cells than requested workers (a resume tail) must not
	// strand budget: the per-cell training parallelism divides SimBudget
	// by the workers actually spawned.
	workers := min(cfg.Workers, max(len(pending), 1))
	s.simPar = max(1, cfg.SimBudget/workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range feed {
				if ctx.Err() != nil {
					continue // drain without running
				}
				if cfg.OnCellStart != nil {
					cbMu.Lock()
					cfg.OnCellStart(c)
					cbMu.Unlock()
				}
				cfg.Obs.Gauge(obs.GaugeSweepCellsInFlight).Add(1)
				res := s.runCell(ctx, c)
				cfg.Obs.Gauge(obs.GaugeSweepCellsInFlight).Add(-1)
				if ctx.Err() != nil {
					// The sweep was canceled mid-cell: do not record a
					// cancellation artifact; resume re-runs this cell.
					continue
				}
				cfg.Obs.Gauge(obs.GaugeSweepCellsPending).Add(-1)
				if res.Status == StatusOK {
					cfg.Obs.Counter(obs.CounterSweepCellsDone).Add(1)
				} else {
					cfg.Obs.Counter(obs.CounterSweepCellsFailed).Add(1)
				}
				mu.Lock()
				outcomes[res.Key] = res
				if man != nil {
					man.Cells[res.Key] = res
					if err := man.save(manPath); err != nil && saveErr == nil {
						// Durability was requested; losing it silently
						// would break the resume contract. Fail the sweep.
						saveErr = err
						cancel()
					}
				}
				mu.Unlock()
				if cfg.OnCell != nil && ctx.Err() == nil {
					cbMu.Lock()
					cfg.OnCell(res)
					cbMu.Unlock()
				}
			}
		}()
	}
	for _, c := range pending {
		feed <- c
		if ctx.Err() != nil {
			break
		}
	}
	close(feed)
	wg.Wait()
	if saveErr != nil {
		return nil, saveErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	res := &Result{Grid: *g, Fingerprint: fp, Notes: notes}
	for _, c := range cells {
		out, ok := outcomes[c.Key()]
		if !ok {
			res.Pending = append(res.Pending, c.Key())
			continue
		}
		res.Cells = append(res.Cells, out)
	}
	sort.Slice(res.Cells, func(i, j int) bool { return res.Cells[i].Key < res.Cells[j].Key })
	sort.Strings(res.Pending)
	return res, nil
}

// Load rebuilds a Result from a sweep directory's manifest without
// running anything — the `calibre sweep report` path. Cells the manifest
// does not cover are listed as Pending.
func Load(g *Grid, dir string) (*Result, error) {
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	man, err := loadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	if man.Fingerprint != fp {
		return nil, fmt.Errorf("%w: manifest fingerprint %s, grid %s", ErrManifestMismatch, man.Fingerprint, fp)
	}
	res := &Result{Grid: *g, Fingerprint: fp}
	for _, c := range cells {
		out, ok := man.Cells[c.Key()]
		if !ok {
			res.Pending = append(res.Pending, c.Key())
			continue
		}
		out.FromManifest = true
		res.Cells = append(res.Cells, out)
	}
	sort.Slice(res.Cells, func(i, j int) bool { return res.Cells[i].Key < res.Cells[j].Key })
	sort.Strings(res.Pending)
	return res, nil
}

// runCell executes one cell end to end: environment, method, simulation,
// personalization, summaries. Every failure mode — error, panic anywhere
// in the cell, timeout — becomes a typed CellResult rather than taking
// down the sweep.
func (s *sweeper) runCell(ctx context.Context, c Cell) (res CellResult) {
	start := time.Now()
	res = CellResult{Key: c.Key(), Cell: c, Status: StatusFailed}
	rec := s.cfg.Recorder.WithCell(c.Key())
	tsCell := rec.Now()
	rec.Emit(trace.Event{Kind: trace.KindCellStart, TS: tsCell, Runtime: "sweep", Round: -1, Client: -1})
	var mon *health.Monitor
	if s.cfg.Health != nil {
		mon = health.NewMonitor(s.cfg.Health)
	}
	defer func() {
		if r := recover(); r != nil {
			res.Status = StatusFailed
			res.Error = fmt.Sprintf("panic: %v", r)
			res.Panicked = true
		}
		// Record health verdicts whatever the outcome — a cell that
		// diverged into failure is exactly the one whose alerts matter.
		if mon != nil {
			d := mon.Diagnosis()
			res.HealthAlerts = len(d.Alerts) + d.Dropped
			res.HealthCritical = d.Critical
			res.Suspects = d.Suspects
		}
		res.DurationMS = time.Since(start).Milliseconds()
		tsEnd := rec.Now()
		rec.Emit(trace.Event{Kind: trace.KindCellEnd, TS: tsEnd, Runtime: "sweep",
			Round: -1, Client: -1, Dur: tsEnd - tsCell, N: res.Rounds, Note: res.Status})
	}()
	if s.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.CellTimeout)
		defer cancel()
	}
	// The world is a pure function of the cell's identity: the cell as a
	// scenario, seeded with the hash of its environment key.
	world := c.Seeded()
	buildEnv := s.cfg.buildEnv
	if buildEnv == nil {
		buildEnv = experiments.Scenario.Environment
	}
	env, err := buildEnv(world)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	built, err := world.BuildOn(env)
	if err != nil {
		res.Error = err.Error()
		return res
	}

	var ckpt *experiments.Attached
	if s.cfg.Dir != "" && s.cfg.CheckpointEvery > 0 {
		ckpt, err = experiments.AttachCheckpoints(built.Method, experiments.Checkpoints{
			Dir:   filepath.Join(s.cfg.Dir, "cells", c.Fingerprint()),
			Every: s.cfg.CheckpointEvery, Resume: true,
			Seed: env.Seed, Fingerprint: c.Fingerprint(), Runtime: "sweep",
		})
		switch {
		case errors.Is(err, fl.ErrStatefulResume):
			// Stateful methods cannot be checkpoint-resumed bit-identically;
			// run the cell without checkpoints.
			res.Note = fmt.Sprintf("per-cell checkpointing skipped: %v", fl.ErrStatefulResume)
		case err != nil:
			res.Error = err.Error()
			return res
		default:
			res.Checkpointed = true
		}
	}

	out, err := experiments.RunBuiltMethodWith(ctx, env, built.Method, func(cfg *fl.SimConfig) {
		cfg.Parallelism = s.simPar
		cfg.Quorum = c.Quorum
		cfg.DropoutRate = c.Dropout
		cfg.Straggler = built.Straggler
		cfg.Adversary = built.Adversary
		cfg.Trace = built.Availability
		// One registry across all cells: round/uplink counters accumulate
		// sweep-wide, which is the live view `calibre sweep watch` polls.
		cfg.Obs = s.cfg.Obs
		// The cell-scoped view stamps the cell key onto the simulator's
		// round and client spans.
		cfg.Recorder = rec
		// Each cell gets its own monitor (detector state is per-
		// federation); the sim folds its alerts into the shared registry.
		cfg.Health = mon
		if ckpt != nil {
			ckpt.ConfigureSim(cfg)
		}
	})
	if err != nil {
		res.Error = err.Error()
		var pe *fl.PanicError
		if errors.As(err, &pe) {
			res.Panicked = true
		}
		return res
	}
	res.Status = StatusOK
	res.Rounds = len(out.History)
	if n := len(out.History); n > 0 {
		res.FinalLoss = out.History[n-1].MeanLoss
	}
	res.Participants = out.Participants.Summary
	res.Novel = out.Novel.Summary
	return res
}
