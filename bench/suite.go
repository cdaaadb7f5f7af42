package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteConfig is a whole benchmark: every workload, several untraced
// runs and one traced run each.
type suiteConfig struct {
	only    string // "" for every workload
	seed    int64
	seconds float64
	quick   bool
	runs    int
	traced  bool
	out     string
}

// runChild runs one (workload, run) in a fresh process — this program
// re-executed — so the tensor pool, arenas, heap high-water and VmHWM
// are that run's own.
func runChild(ctx context.Context, cfg suiteConfig, w workload, traced bool, spansPath string) (*runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	if spansPath != "" {
		args = append(args, "-spans", spansPath)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: child printed %d lines, want a detail and a result line", w.name, len(lines))
	}
	var rec runRecord
	var d struct {
		Detail detail `json:"detail"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return nil, fmt.Errorf("%s: detail line: %w", w.name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.resultLine); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	rec.Detail = d.Detail
	return &rec, nil
}

// runSuite runs the workloads, prints every metric by name with its
// unit, runs the checks that need more than one run, writes the results,
// and fails if any check did.
func runSuite(ctx context.Context, cfg suiteConfig) error {
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
	}
	res := suiteResults{Schema: resultsSchema, Seconds: cfg.seconds, Quick: cfg.quick}
	var failures []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		failures = append(failures, msg)
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
	var total opCount
	digests := map[string]string{}
	for _, w := range workloads {
		if cfg.only != "" && cfg.only != w.name {
			continue
		}
		wr := workloadResults{Name: w.name}
		for i := 0; i < cfg.runs; i++ {
			rec, err := runChild(ctx, cfg, w, false, "")
			if err != nil {
				// A run that died counts every operation it planned as failed.
				fail("%v", err)
				total = total.add(plannedOps(w))
				continue
			}
			wr.Runs = append(wr.Runs, *rec)
		}
		if cfg.traced {
			if cfg.out != "" {
				wr.Spans = "spans-" + w.name + ".json"
			}
			spansPath := ""
			if wr.Spans != "" {
				spansPath = filepath.Join(cfg.out, wr.Spans)
			}
			rec, err := runChild(ctx, cfg, w, true, spansPath)
			if err != nil {
				fail("%v", err)
				total = total.add(plannedOps(w))
			} else {
				wr.Traced = rec
			}
		}
		records := append([]runRecord(nil), wr.Runs...)
		if wr.Traced != nil {
			records = append(records, *wr.Traced)
		}
		for _, r := range records {
			total = total.add(opCount{r.Attempted, r.Failed})
			for _, c := range r.Detail.Checks {
				if !c.OK {
					fail("%s: %s: %s", w.name, c.Name, c.Note)
				}
			}
			if d, ok := digests[w.name]; ok && d != r.Detail.Digest {
				fail("%s: runs of seed %d end on different digests (%s, %s)", w.name, cfg.seed, d, r.Detail.Digest)
			}
			digests[w.name] = r.Detail.Digest
			for k, v := range r.Detail.Quality {
				if v != records[0].Detail.Quality[k] {
					fail("%s: %s differs between runs of seed %d (traced and untraced runs must agree)", w.name, k, cfg.seed)
				}
			}
		}
		printWorkload(wr)
		res.Workloads = append(res.Workloads, wr)
	}
	if a, b := digests["sim-calibre"], digests["net-calibre"]; a != "" && b != "" && a != b {
		fail("sim-calibre ends on %s but net-calibre on %s: the two runtimes disagree", a, b)
	}
	fmt.Printf("\nop_fail_rate %.6g ratio (%d of %d operations failed)\n", total.failRate(), total.Failed, total.Attempted)
	if total.Failed > 0 {
		fail("%d operations failed", total.Failed)
	}
	if cfg.out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.out, "results.json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d output checks failed", len(failures))
	}
	return nil
}

// printWorkload prints a workload's end-to-end metrics as the median of
// its runs with their quartile spread, then the traced run's per-layer
// metrics.
func printWorkload(wr workloadResults) {
	fmt.Printf("\n== %s: %d untraced runs ==\n", wr.Name, len(wr.Runs))
	for _, m := range endToEnd {
		v := wr.values(m.Name)
		if len(v) == 0 {
			continue
		}
		fmt.Printf("%-36s %14.6g %-7s spread %5.2f%% of bound %g%% (n=%d)\n",
			m.Name, median(v), m.Unit, 100*quartileSpread(v), 100*m.Bound, len(v))
	}
	if wr.Traced == nil {
		return
	}
	d := wr.Traced.Detail
	fmt.Printf("-- traced run: %d bare + %d traced reps, digest %s --\n", d.Reps-d.TracedReps, d.TracedReps, d.Digest)
	for _, m := range perLayer {
		if v, ok := wr.Traced.Metrics[m.Name]; ok {
			fmt.Printf("%-36s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if v := wr.Traced.Metrics["bench.trace_overhead_pct"].Value; v >= 3 {
		fmt.Printf("note: tracing overhead %.2f%% is above the 3%% budget (one traced run; compare with the spread above)\n", v)
	}
}
