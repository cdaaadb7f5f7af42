package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"calibre/internal/sweep"
)

// sweepCmd runs declarative scenario grids — methods × partitions × seeds
// × federation knobs, including the hostile axes (aggregators, adversary,
// adversary_frac, availability) — as one scheduled, resumable, reportable
// unit (see internal/sweep and the "Sweep engine" and "Threat model"
// sections of ARCHITECTURE.md).
//
//	calibre sweep plan   -grid grid.json
//	calibre sweep run    -grid grid.json -out results/ [-workers 4] [-sim-budget 8] [-metrics-addr :9800]
//	calibre sweep resume -grid grid.json -out results/
//	calibre sweep report -grid grid.json -out results/
//	calibre sweep watch  -addr 127.0.0.1:9800
//
// run executes every cell and writes sweep-cells.csv, sweep-methods.csv
// and sweep-report.md next to the manifest in -out. A killed sweep is
// picked up with resume, which skips completed cells (and, with
// -checkpoint-every, continues long cells mid-federation); the resumed
// report is byte-identical to an uninterrupted run's. report rebuilds
// the report from the manifest without running anything. plan prints the
// expanded grid and exits.
//
// With -metrics-addr, run serves live observability (internal/obs) over
// HTTP — /metrics as JSON, /metrics/prom as Prometheus text — and watch
// polls that endpoint from another terminal, rendering one progress line
// per poll. SIGINT/SIGTERM interrupt a run gracefully: in-flight cells
// are abandoned, the manifest keeps every completed cell, and the process
// exits non-zero with a resume hint.
func sweepCmd(verb string) func([]string) error {
	return func(args []string) error { return runSweep(verb, args) }
}

func runSweep(verb string, args []string) error {
	fs := newFlagSet("sweep " + verb)
	var (
		gridPath  = fs.String("grid", "", "grid JSON file (required)")
		out       = fs.String("out", "", "sweep directory: manifest, per-cell checkpoints, reports")
		workers   = fs.Int("workers", 1, "concurrent cells (outer level of the worker budget)")
		simBudget = fs.Int("sim-budget", 0, "total concurrent client-training goroutines across cells; 0 = GOMAXPROCS")
		timeout   = fs.Duration("timeout", 0, "per-cell wall-clock budget; 0 = unbounded")
		ckptEvery = fs.Int("checkpoint-every", 0, "per-cell durable checkpoint stride in rounds; 0 = off")
		kernels   = fs.Int("kernel-workers", 0, "resize the process-wide tensor kernel pool; 0 = leave as is")
		quiet     = fs.Bool("quiet", false, "suppress per-cell progress lines")
		planes    = addPlaneFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *gridPath == "" {
		return fmt.Errorf("%s: -grid is required", verb)
	}
	grid, err := sweep.LoadGrid(*gridPath)
	if err != nil {
		return err
	}
	if verb == "plan" {
		return plan(grid)
	}
	if *out == "" {
		return fmt.Errorf("%s: -out is required (the manifest is what makes a sweep resumable and reportable)", verb)
	}
	if verb == "report" {
		res, err := sweep.Load(grid, *out)
		if err != nil {
			return err
		}
		return emit(res, *out)
	}
	cfg := sweep.Config{
		Workers:         *workers,
		SimBudget:       *simBudget,
		CellTimeout:     *timeout,
		KernelWorkers:   *kernels,
		CheckpointEvery: *ckptEvery,
		Dir:             *out,
		Resume:          verb == "resume",
	}
	if cfg.Health, err = planes.healthConfig(); err != nil {
		return err
	}
	total, done := 0, 0
	if !*quiet {
		cfg.OnPlan = func(planned, pending int) {
			total = pending
			if pending < planned {
				fmt.Printf("plan: %d cells, %d already in the manifest, %d to run\n", planned, planned-pending, pending)
			} else {
				fmt.Printf("plan: %d cells\n", planned)
			}
		}
		cfg.OnCell = func(res sweep.CellResult) {
			done++
			status := res.Status
			if res.Status == sweep.StatusOK {
				status = fmt.Sprintf("ok mean=%.4f var=%.5f", res.Participants.Mean, res.Participants.Variance)
			}
			// Health verdicts ride the progress line only when the
			// cell's monitor actually raised something.
			if res.HealthAlerts > 0 {
				status += fmt.Sprintf(" · health: %d alerts (%d critical)", res.HealthAlerts, res.HealthCritical)
				if len(res.Suspects) > 0 {
					status += fmt.Sprintf(", suspects %v", res.Suspects)
				}
			}
			fmt.Printf("[%d/%d] %s: %s (%dms)\n", done, total, res.Key, status, res.DurationMS)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One registry across all cells: no monitor answers /healthz, each
	// cell has its own.
	reg, rec, detach, err := planes.attach(nil)
	if err != nil {
		return err
	}
	defer detach()
	cfg.Obs, cfg.Recorder = reg, rec
	start := time.Now()
	res, err := sweep.Run(ctx, grid, cfg)
	if err != nil {
		if ctx.Err() != nil {
			// The manifest holds every cell completed before the signal;
			// stop() restores default signal handling so a second ^C
			// kills a hung teardown the hard way.
			stop()
			fmt.Fprintf(os.Stderr, "interrupted; completed cells are in the manifest — resume with `calibre sweep resume -grid %s -out %s`\n", *gridPath, *out)
		}
		return err
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("sweep completed in %s\n\n", time.Since(start).Round(time.Millisecond))
	return emit(res, *out)
}

// plan prints the expanded grid without running anything.
func plan(grid *sweep.Grid) error {
	cells, err := grid.Expand()
	if err != nil {
		return err
	}
	fp, err := grid.Fingerprint()
	if err != nil {
		return err
	}
	name := grid.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Printf("sweep %s: %d cells, fingerprint %s\n", name, len(cells), fp)
	for _, c := range cells {
		fmt.Printf("  %s (env-seed %d)\n", c.Key(), c.EnvSeed())
	}
	return nil
}

// emit writes the report artifacts into dir and prints the markdown.
func emit(res *sweep.Result, dir string) error {
	rep := sweep.NewReport(res)
	for _, art := range []struct {
		name  string
		write func(f *os.File) error
	}{
		{"sweep-cells.csv", func(f *os.File) error { return rep.WriteCellsCSV(f) }},
		{"sweep-methods.csv", func(f *os.File) error { return rep.WriteMethodsCSV(f) }},
		{"sweep-report.md", func(f *os.File) error { return rep.WriteMarkdown(f) }},
	} {
		path := filepath.Join(dir, art.name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := art.write(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
	}
	fmt.Printf("[wrote sweep-cells.csv, sweep-methods.csv, sweep-report.md to %s]\n\n", dir)
	return rep.WriteMarkdown(os.Stdout)
}
