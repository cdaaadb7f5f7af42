package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// diffBench diffs two `calibre perf` envelopes (BENCH_*.json) record by
// record:
//
//	calibre diff bench BENCH_kernels.json /tmp/new/BENCH_kernels.json
//
// Records are matched by their string-valued fields (the identity axes:
// op, shape, …) within each shared section, and every shared numeric
// field is diffed. Both recording environments are printed, and
// environment mismatches — above all gomaxprocs, where a different core
// count than the committed two-core baselines' makes timings and parallel
// speedups read as phantom regressions or gains — warn loudly on stderr
// rather than being silently averaged into the diff.
//
// With -fail FIELD the diff is a gate: it exits non-zero when FIELD is
// higher in B than in A on any shared record. ci.sh runs it with
// `-fail allocs_op` from the committed BENCH_kernels.json to the quick run's:
// an allocation count repeats from run to run and host to host, so a rise is
// a regression, where wall-time fields and environment mismatches can only
// ever be warnings.
func diffBenchCmd(args []string) error {
	fs := newFlagSet("diff bench")
	failField := fs.String("fail", "", "exit non-zero if this numeric `field` (e.g. allocs_op) rose from A to B on any shared record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two file paths, got %d args", fs.NArg())
	}
	return diffBench(fs.Arg(0), fs.Arg(1), *failField)
}

func diffBench(pathA, pathB, failField string) error {
	a, err := readBenchFile(pathA)
	if err != nil {
		return err
	}
	b, err := readBenchFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("bench diff: %s vs %s\n", pathA, pathB)
	fmt.Printf("A: %s (%s)\nB: %s (%s)\n", a.Env(), a.Schema, b.Env(), b.Schema)
	for _, w := range benchEnvMismatch(a, b) {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	shared := 0
	var rose []string // records whose failField is higher in B
	gated := 0        // shared records that carry failField
	for _, name := range a.SectionNames() {
		rowsB, ok := b.Sections[name]
		if !ok {
			continue
		}
		idxA, idxB := indexRecords(a.Sections[name]), indexRecords(rowsB)
		keys := make([]string, 0, len(idxA))
		for k := range idxA {
			if _, ok := idxB[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) == 0 {
			continue
		}
		shared += len(keys)
		fmt.Printf("\n%s (%d shared records):\n", name, len(keys))
		for _, k := range keys {
			ra, rb := idxA[k], idxB[k]
			var parts []string
			for _, f := range numericFields(ra, rb) {
				va, vb := ra[f].(float64), rb[f].(float64)
				if f == failField {
					gated++
					if vb > va {
						rose = append(rose, fmt.Sprintf("%s: %g → %g", k, va, vb))
					}
				}
				switch {
				case va == vb:
				case va != 0:
					parts = append(parts, fmt.Sprintf("%s %g → %g (%+.1f%%)", f, va, vb, 100*(vb-va)/va))
				default:
					parts = append(parts, fmt.Sprintf("%s %g → %g", f, va, vb))
				}
			}
			if len(parts) == 0 {
				parts = append(parts, "unchanged")
			}
			fmt.Printf("  %s: %s\n", k, strings.Join(parts, ", "))
		}
	}
	if shared == 0 {
		return fmt.Errorf("the two files share no records (different harnesses? A is %s, B is %s)", a.Schema, b.Schema)
	}
	if failField != "" && gated == 0 {
		return fmt.Errorf("-fail %s: no shared record carries that field in both files", failField)
	}
	if len(rose) > 0 {
		return fmt.Errorf("%s rose on %d of the %d shared records that carry it:\n  %s", failField, len(rose), gated, strings.Join(rose, "\n  "))
	}
	return nil
}

// indexRecords keys each record by its string-valued fields. Records with
// no string fields (e.g. the sweep harness's, keyed by a numeric worker
// count) fall back to positional identity.
func indexRecords(rows []map[string]any) map[string]map[string]any {
	out := make(map[string]map[string]any, len(rows))
	for i, r := range rows {
		keys := make([]string, 0, len(r))
		for f, v := range r {
			if s, ok := v.(string); ok {
				keys = append(keys, f+"="+s)
			}
		}
		sort.Strings(keys)
		key := strings.Join(keys, " ")
		if key == "" {
			key = fmt.Sprintf("#%d", i)
		}
		out[key] = r
	}
	return out
}

// numericFields returns the sorted field names carrying numbers in both
// records — the measurements worth diffing.
func numericFields(a, b map[string]any) []string {
	var fields []string
	for f, v := range a {
		if _, ok := v.(float64); !ok {
			continue
		}
		if _, ok := b[f].(float64); !ok {
			continue
		}
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}
