package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"calibre/internal/tensor"
)

// childEnv marks a test binary that a suite re-executed as its child:
// it then behaves as the benchmark program, not as a test run.
const childEnv = "CALIBRE_BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	code := m.Run()
	_ = os.RemoveAll(scratchDir)
	os.Exit(code)
}

// Every workload, untraced and traced, in quick mode: the run is
// correct, prints every metric its kind of run owes, and on the traced
// run the spans account for the round.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	ctx := context.Background()
	digests := map[string]string{}
	tensor.SetWorkers(pinKernelWorkers) // the kernel pool's workers live as long as the process
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			before := runtime.NumGoroutine()
			o, err := runWorkload(ctx, runConfig{w: w.quick(), seed: 5, seconds: 0, traced: traced, quick: true, scratch: scratchDir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			for _, c := range o.Detail.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.name, traced, c.Name, c.Note)
				}
			}
			if !o.Correct || o.Ops.Failed != 0 || o.Ops.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v ops=%+v", w.name, traced, o.Correct, o.Ops)
			}
			line, err := o.result()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(want))
			}
			if d, ok := digests[w.name]; ok && d != o.Detail.Digest {
				t.Errorf("%s: traced run ends on %s, untraced on %s", w.name, o.Detail.Digest, d)
			}
			digests[w.name] = o.Detail.Digest
			if traced {
				checkSpansAccountForRounds(t, w, o)
			} else {
				for _, m := range endToEnd {
					if v := line.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, v)
					}
				}
			}
			// No goroutine outlives a federation: clients, server workers
			// and proxy relays are all waited for.
			waitGoroutines(t, before)
		}
	}
	if digests["sim-calibre"] != digests["net-calibre"] {
		t.Errorf("sim-calibre ends on %s, net-calibre on %s", digests["sim-calibre"], digests["net-calibre"])
	}
	if entries, _ := os.ReadDir(scratchDir); len(entries) != 0 {
		t.Errorf("%d entries left in %s", len(entries), scratchDir)
	}
}

func checkSpansAccountForRounds(t *testing.T, w workload, o *runOutput) {
	t.Helper()
	if len(o.Spans) == 0 {
		t.Fatalf("%s: traced run kept no spans", w.name)
	}
	for _, spans := range o.Spans {
		byID := map[int]span{}
		children := map[int][]span{}
		for _, s := range spans {
			byID[s.ID] = s
			children[s.Parent] = append(children[s.Parent], s)
		}
		rounds, trains := 0, 0
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", w.name, s)
			}
			if s.Name == spanFederation {
				if s.Parent != 0 {
					t.Errorf("%s: federation span has parent %d", w.name, s.Parent)
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				t.Fatalf("%s: span %+v has no parent", w.name, s)
			}
			switch s.Name {
			case spanTrain, spanAggregate, spanIngest, spanCheckpoint:
				if p.Name != spanRound || p.Round != s.Round {
					t.Errorf("%s: %s span of round %d hangs under %s of round %d", w.name, s.Name, s.Round, p.Name, p.Round)
				}
				if s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: %s span [%d,%d] leaves its round [%d,%d]", w.name, s.Name, s.Start, s.End, p.Start, p.End)
				}
				if s.Name == spanTrain {
					trains++
				}
			case spanRound:
				rounds++
				self := selfTime(s, children[s.ID])
				if self < 0 || self > s.dur() {
					t.Errorf("%s: round %d self time %d outside [0, %d]", w.name, s.Round, self, s.dur())
				}
			}
		}
		if rounds != w.quick().rounds || trains != rounds*w.perRound {
			t.Errorf("%s: %d round spans and %d train spans, want %d and %d", w.name, rounds, trains, w.quick().rounds, w.quick().rounds*w.perRound)
		}
	}
	m := o.Metrics
	// cover(train ∪ aggregate ∪ checkpoint) + self = round, so no part can
	// exceed the traced reps' mean round.
	self := m["fl.round_self_ms"] + m["flnet.round_self_ms"]
	if m["fl.train_cover_ms_per_round"] <= 0 || self < 0 {
		t.Errorf("%s: cover %v, self %v", w.name, m["fl.train_cover_ms_per_round"], self)
	}
	if w.net != (m["flnet.uplink_bytes_per_round"] > 0) || w.net != (m["flnet.round_self_ms"] > 0) {
		t.Errorf("%s: uplink %v B and flnet self %v ms do not match the runtime", w.name, m["flnet.uplink_bytes_per_round"], m["flnet.round_self_ms"])
	}
	if w.ops != (m["store.checkpoint_calls"] > 0) || w.ops != (m["store.checkpoint_bytes_per_round"] > 0) {
		t.Errorf("%s: checkpoint calls %v, bytes %v", w.name, m["store.checkpoint_calls"], m["store.checkpoint_bytes_per_round"])
	}
	if got, want := m["fl.train_calls"], float64(w.quick().rounds*w.perRound); got != want {
		t.Errorf("%s: fl.train_calls = %v, want %v", w.name, got, want)
	}
	if m["fl.aggregate_calls"] != float64(w.quick().rounds) {
		t.Errorf("%s: fl.aggregate_calls = %v, want one per round", w.name, m["fl.aggregate_calls"])
	}
}

// The committed BENCHMARK.json is what the program defines, and it is
// inside the limits the driver's contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := marshalSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `go run . -print-spec`; regenerate it")
	}
	s := spec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range s.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
	if !hasSetup || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("spec outside the contract: setup_s=%v, %d end-to-end, %d per-layer, %d s", hasSetup, len(s.EndToEnd), len(s.PerLayer), s.RunSeconds)
	}
	for m := range exactMetrics {
		if !seen[m] {
			t.Errorf("exact metric %s is not a declared metric", m)
		}
	}
}

// A quick suite: children in fresh processes, results written, spans
// written; comparing the results with themselves finds no regression,
// and comparing with a slowed-down copy does.
func TestQuickSuiteAndCompare(t *testing.T) {
	t.Setenv(childEnv, "1")
	dir := t.TempDir()
	err := runSuite(context.Background(), suiteConfig{only: "sim-fedavg", seed: 9, seconds: 0, quick: true, runs: 2, traced: true, out: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 1 || len(res.Workloads[0].Runs) != 2 || res.Workloads[0].Traced == nil {
		t.Fatalf("results hold %+v", res.Workloads)
	}
	var spans [][]span
	buf, err := os.ReadFile(filepath.Join(dir, res.Workloads[0].Spans))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &spans); err != nil || len(spans) == 0 || len(spans[0]) == 0 {
		t.Fatalf("spans file: %v, %d reps", err, len(spans))
	}
	s := spec()
	var out bytes.Buffer
	if compareResults(&out, &s, res, res) {
		t.Fatalf("a results file regressed against itself:\n%s", out.String())
	}
	for _, m := range s.EndToEnd {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("comparison has no row for %s:\n%s", m.Name, out.String())
		}
	}
	slow, err := loadResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range slow.Workloads[0].Runs {
		// Keep each side's own spread, make every run 1.5× slower.
		v := r.Metrics["round_ms_p50"]
		v.Value = res.Workloads[0].Runs[i].Metrics["round_ms_p50"].Value * 1.5
		r.Metrics["round_ms_p50"] = v
	}
	slow.Workloads[0].Traced.Detail.Digest = "0000000000000000"
	out.Reset()
	if !compareResults(&out, &s, res, slow) {
		t.Fatalf("a 1.5x slower round and a changed digest went unnoticed:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "REGRESSION"); n != 2 && quartileSpread(res.Workloads[0].values("round_ms_p50")) <= 0.10 {
		t.Errorf("want exactly the slowed metric and the digest flagged, got %d:\n%s", n, out.String())
	}
	if v := res.Workloads[0].Runs[0].Metrics["round_ms_p50"].Value; math.IsNaN(v) || v <= 0 {
		t.Errorf("round_ms_p50 = %v", v)
	}
}
