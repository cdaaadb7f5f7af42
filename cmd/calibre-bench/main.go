// Command calibre-bench reproduces the paper's tables and figures.
//
// Usage:
//
//	calibre-bench -exp fig3 -scale ci -seed 42
//	calibre-bench -exp table1 -scale paper
//	calibre-bench -exp all -scale smoke -out results/
//	calibre-bench -list
//
// The -out directory receives machine-readable CSVs (per-method summaries
// and, for the t-SNE figures, 2-D embedding points) alongside the printed
// report.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"calibre/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calibre-bench:", err)
		os.Exit(1)
	}
}

// perfHarnesses are the two -exp modes that time something instead of
// reproducing a figure: the kernels' serial-vs-pool scaling curve and the
// sweep scheduler's worker scaling. What a federation round costs, and
// where, is bench/'s question (go run -C bench .), not this command's.
var perfHarnesses = map[string]func(outDir string, quick bool) error{
	"kernels": runKernelBench,
	"sweep":   runSweepBench,
}

func run(args []string) error {
	fs := flag.NewFlagSet("calibre-bench", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "fig3", "experiment id (fig1..fig8, table1, 'kernels', 'sweep', or 'all')")
		scale = fs.String("scale", "smoke", "scale preset: smoke | ci | paper")
		seed  = fs.Int64("seed", 42, "master seed")
		out   = fs.String("out", "", "directory for CSV/JSON outputs (optional)")
		list  = fs.Bool("list", false, "list experiments and methods, then exit")
		quick = fs.Bool("quick", false, "shrink the perf-harness measurement time (CI preset)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("experiments:", experiments.IDs())
		fmt.Println("perf harnesses: kernels, sweep (run with -exp; not part of -exp all; whole-federation cost: go run -C bench .)")
		fmt.Println("settings:")
		for name := range experiments.Settings() {
			fmt.Println("  ", name)
		}
		return nil
	}
	if bench, ok := perfHarnesses[*exp]; ok {
		dir := *out
		if dir == "" {
			dir = "."
		}
		return bench(dir, *quick)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	ctx := context.Background()
	for _, id := range ids {
		start := time.Now()
		report, err := experiments.Run(ctx, id, experiments.Scale(*scale), *seed)
		if err != nil {
			return fmt.Errorf("run %s: %w", id, err)
		}
		fmt.Println(report)
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			if err := writeCSVs(*out, report); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVs(dir string, report *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	resPath := filepath.Join(dir, report.ID+"-results.csv")
	rf, err := os.Create(resPath)
	if err != nil {
		return fmt.Errorf("create %s: %w", resPath, err)
	}
	defer rf.Close()
	if err := experiments.WriteResultsCSV(rf, report); err != nil {
		return fmt.Errorf("write %s: %w", resPath, err)
	}
	if len(report.Embeddings) > 0 {
		embPath := filepath.Join(dir, report.ID+"-embeddings.csv")
		ef, err := os.Create(embPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", embPath, err)
		}
		defer ef.Close()
		if err := experiments.WriteEmbeddingsCSV(ef, report.Embeddings); err != nil {
			return fmt.Errorf("write %s: %w", embPath, err)
		}
	}
	fmt.Printf("[wrote CSVs to %s]\n", dir)
	return nil
}
