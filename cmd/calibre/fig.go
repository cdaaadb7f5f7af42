package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"calibre/internal/experiments"
)

// runFig reproduces the paper's tables and figures:
//
//	calibre fig -exp fig3 -scale ci -seed 42
//	calibre fig -exp table1 -scale paper
//	calibre fig -exp all -scale smoke -out results/
//	calibre fig -list
//
// The -out directory receives machine-readable CSVs next to the printed
// report: ID-results.csv (per-method summaries) and, for the t-SNE figures
// (fig1, fig2, fig5-fig8), ID-embeddings.csv (the 2-D points, header
// method,x,y,label,client).
func runFig(args []string) error {
	fs := newFlagSet("fig")
	var sc experiments.Scenario
	scaleSeedFlags(fs, &sc)
	var (
		exp  = fs.String("exp", "fig3", "experiment id (fig1..fig8, table1, design, or 'all')")
		out  = fs.String("out", "", "directory for CSV outputs (optional)")
		list = fs.Bool("list", false, "list experiments and settings, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("experiments:", experiments.IDs())
		fmt.Println("perf harnesses: kernels, sweep (calibre perf kernels|sweep; whole-federation cost: go run -C bench .)")
		fmt.Println("settings:")
		for _, name := range experiments.SettingNames() {
			fmt.Println("  ", name)
		}
		return nil
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	ctx := context.Background()
	for _, id := range ids {
		start := time.Now()
		report, err := experiments.Run(ctx, id, sc.Scale, sc.Seed)
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

// perfCmd wraps one of the two harnesses that time something instead of
// reproducing a figure. What a federation round costs, and where, is
// bench/'s question (go run -C bench .), not this command's.
func perfCmd(harness func(outDir string, quick bool) error) func([]string) error {
	return func(args []string) error {
		fs := newFlagSet("perf")
		out := fs.String("out", ".", "directory for the BENCH_*.json output")
		quick := fs.Bool("quick", false, "shrink the measurement time (CI preset)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("unexpected arguments %v", fs.Args())
		}
		return harness(*out, *quick)
	}
}
