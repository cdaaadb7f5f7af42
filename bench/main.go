// Command bench is the repository's end-to-end, layer-attributed
// federation benchmark; see README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

// scratchDir holds a run's temporary files (checkpoint stores, trace
// files). It is relative, so it stays inside the checkout the run was
// started from, and every rep removes what it put there.
const scratchDir = ".bench_tmp"

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this workload only; without -runs, as one run in this process")
		seed         = fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", runSeconds, "how long one run measures")
		traceMode    = fs.Int("trace", 1, "1: a traced run, reporting the per-layer metrics; 0: an untraced run, reporting the end-to-end ones; in a suite, 0 leaves the traced runs out")
		quick        = fs.Bool("quick", false, "a few rounds per workload and one repetition per probe: exercises the harness, measures nothing")
		runs         = fs.Int("runs", 0, "suite: untraced runs per workload, each in a fresh child process (default 3)")
		out          = fs.String("out", "", "suite: directory for results.json and the traced runs' spans")
		spans        = fs.String("spans", "", "traced run: write the spans to this file")
		compare      = fs.Bool("compare", false, "compare two results.json files: -compare A.json B.json")
		specPath     = fs.String("spec", "", "BENCHMARK.json to take bounds from (default: found here or one level up)")
		printSpec    = fs.Bool("print-spec", false, "print BENCHMARK.json as this program defines it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *printSpec:
		buf, err := marshalSpec()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(buf)
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two results files, got %d arguments", fs.NArg())
		}
		return compareFiles(os.Stdout, *specPath, fs.Arg(0), fs.Arg(1))
	case *workloadName != "" && *runs == 0:
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		if *quick {
			w = w.quick()
		}
		defer os.Remove(scratchDir) // succeeds only once every rep has removed its own files
		o, err := runWorkload(ctx, runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traceMode == 1, quick: *quick, scratch: scratchDir})
		if err != nil {
			return err
		}
		if *spans != "" {
			if err := writeSpans(*spans, o.Spans); err != nil {
				return err
			}
		}
		return o.print(os.Stdout)
	}
	if *runs == 0 {
		*runs = 3
	}
	if *workloadName != "" {
		if _, err := workloadByName(*workloadName); err != nil {
			return err
		}
	}
	return runSuite(ctx, suiteConfig{
		only: *workloadName, seed: *seed, seconds: *seconds, quick: *quick, runs: *runs,
		traced: *traceMode == 1, out: *out,
	})
}

// writeSpans writes a traced run's spans, one array per traced rep.
func writeSpans(path string, spans [][]span) error {
	if len(spans) == 0 {
		return errors.New("-spans needs a traced run (-trace 1)")
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
