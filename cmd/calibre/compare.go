package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/sweep"
)

// runCompare runs a chosen set of methods on one experiment setting and
// prints their mean/variance accuracy side by side — the quick way to
// probe a single comparison without regenerating a whole figure:
//
//	calibre compare -setting 'cifar10-d(0.3,600)' -scale ci -seed 42 \
//	    pfl-simclr calibre-simclr fedavg-ft fedbabu
//
// Variants with explicit Calibre regularizer switches are also accepted:
// calibre-simclr[base], calibre-simclr[ln], calibre-simclr[lp],
// calibre-simclr[ln+lp] (likewise for swav/smog/byol/simsiam/mocov2).
func runCompare(args []string) error {
	fs := newFlagSet("compare")
	var sc experiments.Scenario
	settingFlag(fs, &sc)
	scaleSeedFlags(fs, &sc)
	novel := fs.Bool("novel", false, "also personalize the held-out novel clients")
	dump := fs.Bool("dump", false, "print the sorted per-client accuracies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	methods := fs.Args()
	if len(methods) == 0 {
		return fmt.Errorf("no methods given; e.g. calibre compare pfl-simclr calibre-simclr")
	}
	env, err := sc.Environment()
	if err != nil {
		return err
	}
	if !*novel {
		env.Novel = nil
	}
	ctx := context.Background()
	fmt.Printf("setting %s, scale %s, seed %d, %d participants\n\n", sc.Setting, sc.Scale, sc.Seed, len(env.Participants))
	for _, name := range methods {
		start := time.Now()
		out, err := runOne(ctx, env, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sum := out.Participants.Summary
		fmt.Printf("%-26s mean=%.4f var=%.5f std=%.4f bottom10=%.4f (%s)\n",
			name, sum.Mean, sum.Variance, sum.Std, sum.Bottom10, time.Since(start).Round(time.Millisecond))
		if *novel {
			ns := out.Novel.Summary
			fmt.Printf("%-26s   novel: mean=%.4f var=%.5f\n", "", ns.Mean, ns.Variance)
		}
		if *dump {
			accs := append([]float64(nil), out.Participants.Accs...)
			sort.Float64s(accs)
			fmt.Printf("%-26s   accs: %.2f\n", "", accs)
		}
	}
	return nil
}

// diffCmd wraps a two-file diff as `calibre diff KIND A B`.
func diffCmd(diff func(pathA, pathB string) error) func([]string) error {
	return func(args []string) error {
		fs := newFlagSet("diff")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("want exactly two file paths, got %d args", fs.NArg())
		}
		return diff(fs.Arg(0), fs.Arg(1))
	}
}

// diffSweeps reads two sweep cells CSVs (as `calibre sweep` writes into
// sweep-cells.csv) and prints the per-method drift in mean accuracy and
// fairness variance, aggregated over the cells the two sweeps share:
//
//	calibre diff sweep mean/sweep-cells.csv median/sweep-cells.csv
//
// Cells are matched by (method, setting, scale, seed) — the A/B join for
// sweeps that differ in a federation knob, like a mean-aggregated sweep
// against a median-aggregated one — falling back to the full cell key when that join is
// ambiguous (a sweep with several knob combinations per method and
// environment).
func diffSweeps(pathA, pathB string) error {
	read := func(path string) ([]sweep.CellRow, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rows, err := sweep.ReadCellsCSV(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ok := rows[:0]
		for _, r := range rows {
			if r.Status == sweep.StatusOK {
				ok = append(ok, r)
			}
		}
		return ok, nil
	}
	rowsA, err := read(pathA)
	if err != nil {
		return err
	}
	rowsB, err := read(pathB)
	if err != nil {
		return err
	}
	abKey := func(r sweep.CellRow) string {
		return fmt.Sprintf("method=%s|setting=%s|scale=%s|seed=%d", r.Method, r.Setting, r.Scale, r.Seed)
	}
	// The A/B join is only usable when it is unambiguous in BOTH files;
	// otherwise both fall back to full cell keys together.
	unambiguous := func(rows []sweep.CellRow) bool {
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			k := abKey(r)
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	keyOf := func(r sweep.CellRow) string { return r.Key }
	if unambiguous(rowsA) && unambiguous(rowsB) {
		keyOf = abKey
	}
	index := func(rows []sweep.CellRow) map[string]sweep.CellRow {
		out := make(map[string]sweep.CellRow, len(rows))
		for _, r := range rows {
			out[keyOf(r)] = r
		}
		return out
	}
	a, b := index(rowsA), index(rowsB)
	type acc struct {
		cells        int
		meanA, meanB float64
		varA, varB   float64
	}
	byMethod := make(map[string]*acc)
	onlyA, onlyB := 0, 0
	for key, ra := range a {
		rb, ok := b[key]
		if !ok {
			onlyA++
			continue
		}
		m := byMethod[ra.Method]
		if m == nil {
			m = &acc{}
			byMethod[ra.Method] = m
		}
		m.cells++
		m.meanA += ra.Mean
		m.meanB += rb.Mean
		m.varA += ra.Variance
		m.varB += rb.Variance
	}
	for key := range b {
		if _, ok := a[key]; !ok {
			onlyB++
		}
	}
	if len(byMethod) == 0 {
		return fmt.Errorf("the two sweeps share no completed cells (different grids?)")
	}
	methods := make([]string, 0, len(byMethod))
	for m := range byMethod {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Printf("sweep diff: %s vs %s\n", pathA, pathB)
	if onlyA > 0 || onlyB > 0 {
		fmt.Printf("note: %d cells only in A, %d only in B (excluded from the diff)\n", onlyA, onlyB)
	}
	fmt.Printf("%-26s %6s %12s %12s %12s %14s %12s\n", "method", "cells", "mean A", "mean B", "Δmean", "Δfairness-var", "Δvar%")
	for _, name := range methods {
		m := byMethod[name]
		n := float64(m.cells)
		meanA, meanB := m.meanA/n, m.meanB/n
		varA, varB := m.varA/n, m.varB/n
		fmt.Printf("%-26s %6d %12.4f %12.4f %+12.4f %+14.5f %+11.1f%%\n",
			name, m.cells, meanA, meanB, meanB-meanA, varB-varA, eval.VarianceReductionOf(varB, varA))
	}
	return nil
}

// runOne supports both registry names and Calibre ablation variants
// ("calibre-<ssl>[<combo>]").
func runOne(ctx context.Context, env *experiments.Environment, name string) (*experiments.MethodOutcome, error) {
	if open := strings.Index(name, "["); open > 0 && strings.HasSuffix(name, "]") && strings.HasPrefix(name, "calibre-") {
		sslName := name[len("calibre-"):open]
		combo := name[open+1 : len(name)-1]
		var useLn, useLp bool
		switch combo {
		case "base":
		case "ln":
			useLn = true
		case "lp":
			useLp = true
		case "ln+lp":
			useLn, useLp = true, true
		default:
			return nil, fmt.Errorf("unknown regularizer combo %q (base|ln|lp|ln+lp)", combo)
		}
		m, err := experiments.AblationVariant(env, sslName, useLn, useLp)
		if err != nil {
			return nil, err
		}
		return experiments.RunBuiltMethod(ctx, env, m)
	}
	return experiments.RunMethod(ctx, env, name)
}
