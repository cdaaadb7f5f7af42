package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// resultsSchema identifies the layout of a suite's results.json.
const resultsSchema = "calibre/bench-results/v1"

// suiteResults is what a suite writes and -compare reads.
type suiteResults struct {
	Schema    string            `json:"schema"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name   string      `json:"name"`
	Runs   []runRecord `json:"runs"`             // untraced, one per child process
	Traced *runRecord  `json:"traced,omitempty"` // the traced run
	Spans  string      `json:"spans_file,omitempty"`
}

// runRecord is one child's result line and detail line.
type runRecord struct {
	resultLine
	Detail detail `json:"detail"`
}

func (w workloadResults) values(metric string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// worseBy is how much worse b is than a in the metric's direction, as a
// share of a. Negative means better.
func worseBy(better string, a, b float64) (abs, share float64) {
	abs = b - a
	if better == "higher" {
		abs = a - b
	}
	if a == 0 {
		return abs, math.Inf(int(math.Copysign(1, abs)))
	}
	return abs, abs / math.Abs(a)
}

// verdict judges metric m going from a to b (medians), given each
// side's own run-to-run spread:
//   - an exact metric regressed if it moved at all;
//   - a metric whose own spread is wider than its bound cannot be
//     resolved either way;
//   - otherwise it regressed if it got worse by more than the bound and,
//     where the metric has one, by more than the absolute floor.
func verdict(m metricDef, exact bool, floor, a, b, spreadA, spreadB float64) string {
	if exact {
		if a == b {
			return "same"
		}
		return "REGRESSION (exact metric moved)"
	}
	abs, share := worseBy(m.Better, a, b)
	switch {
	case math.Max(spreadA, spreadB) > m.Bound:
		return "unresolved"
	case share > m.Bound && abs > floor:
		return "REGRESSION"
	case share < -m.Bound:
		return "better"
	}
	return "ok"
}

func findSpec(path string) (*benchSpec, error) {
	if path != "" {
		return loadSpec(path)
	}
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if s, err := loadSpec(p); err == nil {
			return s, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return nil, errors.New("no BENCHMARK.json here or one level up; name it with -spec")
}

func loadResults(path string) (*suiteResults, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResults
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

var errRegression = errors.New("at least one metric regressed")

// compareFiles prints one row per (workload, metric) for results B
// against baseline A and returns errRegression if any row regressed.
func compareFiles(out io.Writer, specPath, pathA, pathB string) error {
	spec, err := findSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	if compareResults(out, spec, a, b) {
		return errRegression
	}
	return nil
}

func compareResults(out io.Writer, spec *benchSpec, a, b *suiteResults) (regressed bool) {
	byName := map[string]workloadResults{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-13s %-28s %-7s %13s %13s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "unit", "A (base)", "B", "B/A", "bound", "spreadA", "spreadB", "verdict")
	row := func(w, metric, unit string, va, vb float64, bound string, sa, sb float64, v string) {
		ratio := "-" // a base of 0 has no ratio
		if va != 0 {
			ratio = fmt.Sprintf("%.4f", vb/va)
		}
		fmt.Fprintf(out, "%-13s %-28s %-7s %13.6g %13.6g %9s %7s %7.2f%% %7.2f%%  %s\n",
			w, metric, unit, va, vb, ratio, bound, 100*sa, 100*sb, v)
		regressed = regressed || strings.HasPrefix(v, "REGRESSION")
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(out, "%-13s missing from B\n", wa.Name)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-13s %-28s not measured on both sides\n", wa.Name, m.Name)
				regressed = true
				continue
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			ma, mb := median(va), median(vb)
			row(wa.Name, m.Name, m.Unit, ma, mb, fmt.Sprintf("%g%%", 100*m.Bound), sa, sb,
				verdict(m, false, absoluteFloor[m.Name], ma, mb, sa, sb))
		}
		// Exact metrics and the digest only mean something seed for seed.
		if wa.Traced == nil || wb.Traced == nil || wa.Traced.Detail.Seed != wb.Traced.Detail.Seed ||
			wa.Traced.Detail.RoundsPerRep != wb.Traced.Detail.RoundsPerRep {
			continue
		}
		for _, m := range spec.PerLayer {
			if !exactMetrics[m.Name] {
				continue
			}
			va, vb := wa.Traced.Metrics[m.Name].Value, wb.Traced.Metrics[m.Name].Value
			row(wa.Name, m.Name, m.Unit, va, vb, "exact", 0, 0, verdict(metricDef{}, true, 0, va, vb, 0, 0))
		}
		v := "same"
		if wa.Traced.Detail.Digest != wb.Traced.Detail.Digest {
			v = "REGRESSION (exact metric moved)"
			regressed = true
		}
		fmt.Fprintf(out, "%-13s %-28s %s -> %s  %s\n", wa.Name, "final-global digest", wa.Traced.Detail.Digest, wb.Traced.Detail.Digest, v)
	}
	return regressed
}
