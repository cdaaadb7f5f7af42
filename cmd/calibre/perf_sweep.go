package main

// The sweep harness (calibre perf sweep) is the reproducible perf gate for the
// sweep scheduler: it runs the same smoke grid at 1, 2 and 4 workers and
// records wall time, throughput (cells/sec) and speedup versus the
// serial schedule, emitting BENCH_sweep.json so the scheduler's scaling
// trajectory is tracked in-repo. The JSON schema is validated by this
// package's tests. Cell results are bit-identical across worker counts (the
// determinism tests pin that); this harness only measures time.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"calibre/internal/sweep"
)

// SweepBenchSchema identifies the BENCH_sweep.json layout.
const SweepBenchSchema = "calibre/bench-sweep/v1"

// SweepBenchFile is the top-level layout of BENCH_sweep.json.
type SweepBenchFile struct {
	Schema     string             `json:"schema"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMaxProcs int                `json:"gomaxprocs"`
	Note       string             `json:"note,omitempty"`
	Grid       SweepBenchGrid     `json:"grid"`
	Records    []SweepBenchRecord `json:"records"`
}

// SweepBenchGrid describes the measured grid.
type SweepBenchGrid struct {
	Methods  int `json:"methods"`
	Settings int `json:"settings"`
	Seeds    int `json:"seeds"`
	Cells    int `json:"cells"`
}

// SweepBenchRecord is one scheduler configuration's measurement.
type SweepBenchRecord struct {
	Workers      int     `json:"workers"`
	WallMS       int64   `json:"wall_ms"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	SpeedupVsOne float64 `json:"speedup_vs_workers_1"`
	FailedCells  int     `json:"failed_cells"`
}

// benchSweepGrid builds the measured smoke grid: cheap supervised
// methods so the harness times the scheduler, not SSL training. quick
// halves the seed axis to fit CI.
func benchSweepGrid(quick bool) *sweep.Grid {
	seeds := []int64{1, 2, 3, 4}
	if quick {
		seeds = seeds[:2]
	}
	return &sweep.Grid{
		Name:     "bench",
		Methods:  []string{"fedavg", "fedavg-ft", "perfedavg"},
		Settings: []string{"cifar10-q(2,500)"},
		Seeds:    seeds,
	}
}

// runSweepBench measures the sweep scheduler and writes BENCH_sweep.json
// into outDir.
func runSweepBench(outDir string, quick bool) error {
	grid := benchSweepGrid(quick)
	cells, err := grid.Expand()
	if err != nil {
		return err
	}
	file := SweepBenchFile{
		Schema:     SweepBenchSchema,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMaxProcs: runtime.GOMAXPROCS(0),
		Grid: SweepBenchGrid{
			Methods: len(grid.Methods), Settings: len(grid.Settings),
			Seeds: len(grid.Seeds), Cells: len(cells),
		},
	}
	if file.GOMaxProcs == 1 {
		file.Note = "recorded on a single-core host: concurrent cells time-slice one core, so workers>1 cannot beat the serial schedule here; regenerate on ≥4 cores for the real speedup trajectory (cell results are bit-identical at any worker count regardless)"
	}
	fmt.Printf("sweep bench: %s/%s gomaxprocs=%d (%d-cell smoke grid, scheduler throughput at 1/2/4 workers)\n",
		file.GOOS, file.GOARCH, file.GOMaxProcs, len(cells))
	var serialMS int64
	for _, workers := range []int{1, 2, 4} {
		// A warm-up run at workers=1 would double the harness cost; the
		// first measured run instead absorbs process-wide warm-up (pool
		// spin-up, page faults), which is why workers=1 runs first.
		start := time.Now()
		res, err := sweep.Run(context.Background(), grid, sweep.Config{Workers: workers})
		if err != nil {
			return fmt.Errorf("sweep bench at %d workers: %w", workers, err)
		}
		wall := time.Since(start)
		failed := 0
		for _, c := range res.Cells {
			if c.Status != sweep.StatusOK {
				failed++
			}
		}
		rec := SweepBenchRecord{
			Workers:     workers,
			WallMS:      wall.Milliseconds(),
			CellsPerSec: float64(len(cells)) / wall.Seconds(),
			FailedCells: failed,
		}
		if workers == 1 {
			serialMS = rec.WallMS
		}
		if rec.WallMS > 0 && serialMS > 0 {
			rec.SpeedupVsOne = float64(serialMS) / float64(rec.WallMS)
		} else {
			rec.SpeedupVsOne = 1
		}
		file.Records = append(file.Records, rec)
		fmt.Printf("workers=%d: %4dms wall, %6.2f cells/sec, %.2fx vs serial (%d failed)\n",
			rec.Workers, rec.WallMS, rec.CellsPerSec, rec.SpeedupVsOne, rec.FailedCells)
	}

	_, err = writeBenchFile(outDir, "BENCH_sweep.json", &file)
	return err
}
