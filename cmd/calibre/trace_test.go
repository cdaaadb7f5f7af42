package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/data"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/trace"
)

// writeSyntheticTrace emits a small deterministic two-round trace (each
// round with a drop, each 5ms long) to a temp file and returns its path.
func writeSyntheticTrace(t *testing.T) string {
	t.Helper()
	return writeSyntheticRounds(t, 5_000_000, 5_000_000)
}

// writeSyntheticRounds is writeSyntheticTrace with one round per span
// length in spans.
func writeSyntheticRounds(t *testing.T, spans ...int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{Clock: trace.StepClock(1_000_000)})
	for round, span := range spans {
		ts := rec.Now()
		rec.Emit(trace.Event{Kind: trace.KindRoundStart, TS: ts, Runtime: "sim", Round: round, Client: -1, N: 2})
		rec.Emit(trace.Event{Kind: trace.KindClientDispatch, TS: rec.Now(), Runtime: "sim", Round: round, Client: 0})
		rec.Emit(trace.Event{Kind: trace.KindClientUpdate, TS: rec.Now(), Runtime: "sim", Round: round, Client: 0,
			Wire: "delta", Bytes: 128, Dur: 2_000_000, Loss: 0.5})
		rec.Emit(trace.Event{Kind: trace.KindClientDrop, TS: rec.Now(), Runtime: "sim", Round: round, Client: 1,
			Reason: trace.DropStraggler})
		rec.Emit(trace.Event{Kind: trace.KindRoundEnd, TS: rec.Now(), Runtime: "sim", Round: round, Client: -1,
			N: 1, Dur: span, Loss: 0.5})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI drives `calibre trace ARGS` and returns what it printed.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	return captureStdout(t, func() error { return run(append([]string{"trace"}, args...)) })
}

func TestSummarySynthetic(t *testing.T) {
	path := writeSyntheticTrace(t)
	out := runCLI(t, "summary", path)
	for _, want := range []string{
		"events:   10",
		"rounds:   2 spans",
		"updates:  2  (wire: delta 2, uplink 256B)",
		"drops:    2  (straggler 2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "phases:") {
		t.Errorf("a trace without phase events printed a phase table:\n%s", out)
	}
	// Nearest rank: p95 of n spans is the ⌈0.95·n⌉-th smallest — the
	// largest of 2 and of 10 — and p50 the ⌈n/2⌉-th.
	ms := func(ns ...int64) []int64 {
		for i := range ns {
			ns[i] *= 1_000_000
		}
		return ns
	}
	for spans, want := range map[string]string{
		"2":  "rounds:   2 spans  (mean 2.5ms  p50 2.0ms  p95 3.0ms  max 3.0ms)",
		"10": "rounds:   10 spans  (mean 5.5ms  p50 5.0ms  p95 10.0ms  max 10.0ms)",
	} {
		durs := ms(3, 2)
		if spans == "10" {
			durs = ms(7, 1, 10, 4, 2, 9, 3, 8, 6, 5)
		}
		if out := runCLI(t, "summary", writeSyntheticRounds(t, durs...)); !strings.Contains(out, want) {
			t.Errorf("%s spans: summary missing %q:\n%s", spans, want, out)
		}
	}
}

// TestSummaryCheckpointStall: the durable line answers "were rounds bounded
// by their checkpoints?" — saves, and how long the loop was blocked on
// them: each round's checkpoint hand-off plus its checkpoint_wait, the two
// checkpoint phases. A checkpoint_save's own dur_ns, which older traces
// carry, is not read: without phase events the line names no stall.
func TestSummaryCheckpointStall(t *testing.T) {
	write := func(phases bool) string {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		sink, err := trace.OpenFile(path, trace.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New(sink, trace.Config{})
		rec.Emit(trace.Event{Kind: trace.KindResume, Runtime: "server", Round: 0, Client: -1})
		// Per round: hand-off and wait, 1+0ms, 0+0ms and 1+2ms.
		for round, stall := range [][2]int64{{1_000_000, 0}, {0, 0}, {1_000_000, 2_000_000}} {
			ts := int64(round) * 10_000_000
			rec.Emit(trace.Event{Kind: trace.KindRoundStart, TS: ts, Runtime: "server", Round: round, Client: -1, N: 1})
			at := func(k trace.Kind, dur int64) {
				if phases {
					rec.Emit(trace.Event{Kind: k, TS: ts, Runtime: "server", Round: round, Client: -1, Dur: dur})
				}
				ts += dur
			}
			at(trace.KindPhaseDraw, 1_000)
			at(trace.KindPhaseCollect, 5_000_000)
			at(trace.KindPhaseCheckpoint, stall[0])
			rec.Emit(trace.Event{Kind: trace.KindCheckpointSave, TS: ts, Runtime: "server", Round: round, Client: -1, Dur: 7_000_000})
			at(trace.KindPhaseHooks, 1_000)
			at(trace.KindPhaseCheckpointWait, stall[1])
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	out := runCLI(t, "summary", write(true))
	for _, want := range []string{
		"durable:  3 checkpoint saves (loop stalled 4.0ms total, max 3.0ms), 1 resumes",
		// Rounds start 10ms apart: the first two leave 4 and 5ms no phase
		// covers, the last ends with its last phase.
		"phases:   3 rounds, 28.0ms wall",
		"  checkpoint           2.0ms    7.1%   666.7µs     1.0ms",
		"  checkpoint_wait      2.0ms    7.1%   666.7µs     2.0ms",
		"  residue              9.0ms   32.1%     3.0ms     5.0ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	want := "durable:  3 checkpoint saves, 1 resumes"
	if out := runCLI(t, "summary", write(false)); !strings.Contains(out, want) {
		t.Errorf("summary of a trace without phases missing %q:\n%s", want, out)
	}
}

func TestTimelineSynthetic(t *testing.T) {
	path := writeSyntheticTrace(t)
	out := runCLI(t, "timeline", path, "-width", "20")
	for _, want := range []string{
		"round 0  sampled 2  aggregated 1  span 5.0ms",
		"client 0",
		"#", // a rendered bar
		"drop: straggler",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// -round filters.
	only := runCLI(t, "timeline", path, "-round", "1")
	if strings.Contains(only, "round 0") || !strings.Contains(only, "round 1") {
		t.Errorf("-round 1 filter failed:\n%s", only)
	}
}

func TestGrepSynthetic(t *testing.T) {
	path := writeSyntheticTrace(t)
	out := runCLI(t, "grep", path, "-kind", "client_drop", "-count")
	if strings.TrimSpace(out) != "2" {
		t.Errorf("grep -count = %q, want 2", strings.TrimSpace(out))
	}
	lines := runCLI(t, "grep", path, "-kind", "client_update", "-round", "1")
	if n := strings.Count(lines, "\n"); n != 1 {
		t.Errorf("grep matched %d lines, want 1:\n%s", n, lines)
	}
	if !strings.Contains(lines, `"t":"client_update"`) || !strings.Contains(lines, `"round":1`) {
		t.Errorf("grep output malformed:\n%s", lines)
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := writeSyntheticTrace(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(torn, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "summary", torn)
	if !strings.Contains(out, "torn tail") {
		t.Errorf("summary on a torn trace should note the truncation:\n%s", out)
	}
	if !strings.Contains(out, "events:   9") {
		t.Errorf("summary should keep the decoded prefix:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run([]string{"trace"}); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"trace", "bogus", "x"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"trace", "summary"}); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"trace", "summary", filepath.Join(t.TempDir(), "absent")}); err == nil {
		t.Error("absent file should error")
	}
}

// TestTimelineRendersRealFederation is the acceptance pin: a real traced
// TCP federation with a deadline straggler and a seeded availability
// trace renders a timeline attributing at least one drop to each cause.
func TestTimelineRendersRealFederation(t *testing.T) {
	const n = 4
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	g, err := data.NewGenerator(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ds := g.GenerateLabeled(rng, 10*n)
	parts, err := partition.IID(rng, ds, n, 20)
	if err != nil {
		t.Fatal(err)
	}
	clients := partition.BuildClients(rng, ds, parts, nil)

	path := filepath.Join(t.TempDir(), "fed.jsonl")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{})
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: 5, ClientsPerRound: 3, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		IOTimeout:  20 * time.Second,
		Quorum:     1, RoundDeadline: 400 * time.Millisecond, Straggler: fl.StragglerRequeue,
		Trace:    &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.2, Amp: 0.15, Period: 4},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var lat func(int) time.Duration
			if id == n-1 {
				// Client 3 always sleeps past the round deadline: a
				// deterministic straggler whenever it is sampled.
				lat = func(int) time.Duration { return 1200 * time.Millisecond }
			}
			flnet.RunClient(ctx, flnet.ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: stubTrainer{}, Personalizer: stubPersonalizer{},
				Seed: 7, IOTimeout: 20 * time.Second, SimLatency: lat,
			})
		}(i)
	}
	if _, err := srv.Run(ctx); err != nil {
		t.Fatalf("server Run: %v", err)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	out := runCLI(t, "timeline", path)
	t.Logf("timeline:\n%s", out)
	if !strings.Contains(out, "drop: straggler") {
		t.Errorf("timeline attributes no straggler drop:\n%s", out)
	}
	if !strings.Contains(out, "drop: trace") {
		t.Errorf("timeline attributes no availability-trace drop:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "round 0") {
		t.Errorf("timeline renders no gantt bars:\n%s", out)
	}
	sum := runCLI(t, "summary", path)
	if !strings.Contains(sum, "straggler") || !strings.Contains(sum, "trace") {
		t.Errorf("summary misses a drop reason:\n%s", sum)
	}
}

// stubTrainer/stubPersonalizer keep the acceptance federation cheap.
type stubTrainer struct{}

func (stubTrainer) Train(_ context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, _ int) (*fl.Update, error) {
	out := make([]float64, len(global))
	for i, v := range global {
		out[i] = v + 1
	}
	return &fl.Update{ClientID: c.ID, Params: out, NumSamples: c.Train.Len(), TrainLoss: 0.5}, nil
}

type stubPersonalizer struct{}

func (stubPersonalizer) Personalize(_ context.Context, _ *rand.Rand, c *partition.Client, _ param.Vector) (float64, error) {
	return float64(c.ID) / 10, nil
}

// killResumeTrace writes the trace of runHostile's federation killed after
// round 4, with a checkpoint every 3 rounds, and resumed into the same
// file: rounds 3 and 4 are recorded twice, once per execution.
func killResumeTrace(t *testing.T, dir string) string {
	t.Helper()
	path, ckptDir := filepath.Join(dir, "killed.trace"), filepath.Join(dir, "ckpt")
	checkpoints := func(m *fl.Method, cfg *fl.SimConfig) error {
		a, err := experiments.AttachCheckpoints(m, experiments.Checkpoints{
			Dir: ckptDir, Every: 3, Resume: true, Seed: 7, Fingerprint: "trace-kill-resume", Runtime: "simulator"})
		if err == nil {
			a.ConfigureSim(cfg)
		}
		return err
	}
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	if _, err := runHostile(ctx, path, func(m *fl.Method, cfg *fl.SimConfig) error {
		cfg.OnRound = func(st fl.RoundStats) {
			if st.Round == 4 {
				kill()
			}
		}
		return checkpoints(m, cfg)
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v, want context.Canceled", err)
	}
	if _, err := runHostile(context.Background(), path, checkpoints); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return path
}

// withoutLines drops the lines of out that start with one of prefixes.
func withoutLines(out string, prefixes ...string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(line, p) }) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// splitPhases cuts the top-level phase table out of a `trace summary`
// output and returns its shape — the round count and the row names — and
// the rest of the output.
func splitPhases(out string) (shape []string, rest string) {
	var keep []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "phases:"):
			in = true
			rounds, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(line, "phases:")), ",")
			shape = append(shape, rounds)
		case in && strings.HasPrefix(line, "  "):
			shape = append(shape, strings.Fields(line)[0])
		default:
			in = false
			keep = append(keep, line)
		}
	}
	return shape, strings.Join(keep, "\n")
}

// TestTraceReadsKillResumeAsUninterrupted: `trace timeline` of a trace a
// killed run and its resumption appended to is the uninterrupted run's,
// byte for byte, and `trace summary` differs only in the events that
// record the kill (the event count, the durable line) and in the phase
// table's timings, not its shape: the same rows over the same rounds, a
// re-run round counted once. `trace grep` still shows everything written.
func TestTraceReadsKillResumeAsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	full, _ := hostileTrace(t, dir)
	killed := killResumeTrace(t, dir)
	if n := runCLI(t, "grep", killed, "-kind", "round_end", "-count"); strings.TrimSpace(n) == "8" {
		t.Fatal("the killed trace records no round twice: the test shows nothing")
	}
	for _, args := range [][]string{nil, {"-round", "3"}} {
		got := runCLI(t, append([]string{"timeline", killed}, args...)...)
		if want := runCLI(t, append([]string{"timeline", full}, args...)...); got != want {
			t.Errorf("timeline %v of the kill+resume trace:\n%s\nwant the uninterrupted run's:\n%s", args, got, want)
		}
	}
	got, want := runCLI(t, "summary", killed), runCLI(t, "summary", full)
	if !strings.Contains(got, "1 resumes") {
		t.Errorf("summary lost the resume:\n%s", got)
	}
	gotShape, got := splitPhases(got)
	wantShape, want := splitPhases(want)
	if !slices.Equal(gotShape, wantShape) || !slices.Contains(wantShape, "residue") || wantShape[0] != "8 rounds" {
		t.Errorf("phase table of the kill+resume trace: %q, want the uninterrupted run's %q (8 rounds, down to residue)", gotShape, wantShape)
	}
	if g, w := withoutLines(got, "events:", "durable:"), withoutLines(want, "events:", "durable:"); g != w {
		t.Errorf("summary of the kill+resume trace:\n%s\nwant the uninterrupted run's:\n%s", got, want)
	}
}

// cellTraceEvents is one synthetic cell's trace, chunk by chunk: six
// rounds of three sampled clients (two updates, one straggler). killed,
// if set, runs rounds 2 and 3 first with a NaN loss and a torn round 4,
// then resumes at round 2. Timestamps are a function of the round alone,
// so a re-executed round is recorded exactly as its clean execution.
func cellTraceEvents(killed bool) [][]trace.Event {
	round := func(r int, loss float64) []trace.Event {
		ts := int64(r) * 1_000_000
		evs := []trace.Event{{Kind: trace.KindRoundStart, TS: ts, Runtime: "sim", Round: r, Client: -1, N: 3}}
		for c := 0; c < 3; c++ {
			evs = append(evs, trace.Event{Kind: trace.KindClientDispatch, TS: ts + 10, Runtime: "sim", Round: r, Client: c})
		}
		for c := 0; c < 2; c++ {
			evs = append(evs, trace.Event{Kind: trace.KindClientUpdate, TS: ts + 400 + 100*int64(c), Runtime: "sim", Round: r, Client: c,
				Wire: "dense", Bytes: 64, Dur: 300 + 100*int64(c), Loss: loss, Norm: 1 + float64(c)})
		}
		return append(evs,
			trace.Event{Kind: trace.KindClientDrop, TS: ts + 700, Runtime: "sim", Round: r, Client: 2, Reason: trace.DropStraggler},
			trace.Event{Kind: trace.KindRoundEnd, TS: ts + 800, Runtime: "sim", Round: r, Client: -1, N: 2, Dur: 800, Loss: loss})
	}
	var chunks [][]trace.Event
	for r := 0; r < 6; r++ {
		if killed && r == 2 {
			chunks = append(chunks, round(2, math.NaN()), round(3, math.NaN()),
				[]trace.Event{{Kind: trace.KindRoundStart, TS: 4_000_000, Runtime: "sim", Round: 4, Client: -1, N: 3}},
				[]trace.Event{{Kind: trace.KindResume, TS: 4_000_100, Runtime: "sim", Round: 2, Client: -1}})
		}
		chunks = append(chunks, round(r, 1/float64(r+1)))
	}
	return chunks
}

// TestTraceCellsReadAlone: two cells whose rounds interleave in one file —
// two Recorder.WithCell views emitting alternately, cell-b killed and
// resumed — read per cell exactly as each cell's events alone:
// `summary -cells`, `timeline -cell K` and `doctor replay -cell K`. The
// resumed cell also reads as its uninterrupted run.
func TestTraceCellsReadAlone(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cells map[string][][]trace.Event) string {
		path := filepath.Join(dir, name)
		sink, err := trace.OpenFile(path, trace.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New(sink, trace.Config{})
		for i := 0; ; i++ {
			emitted := false
			for _, key := range []string{"cell-a", "cell-b"} {
				if chunks := cells[key]; i < len(chunks) {
					for _, e := range chunks[i] {
						rec.WithCell(key).Emit(e)
					}
					emitted = true
				}
			}
			if !emitted {
				break
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	both := write("both.trace", map[string][][]trace.Event{"cell-a": cellTraceEvents(false), "cell-b": cellTraceEvents(true)})
	alone := map[string]string{
		"cell-a": write("a.trace", map[string][][]trace.Event{"cell-a": cellTraceEvents(false)}),
		"cell-b": write("b.trace", map[string][][]trace.Event{"cell-b": cellTraceEvents(true)}),
	}
	clean := write("b-clean.trace", map[string][][]trace.Event{"cell-b": cellTraceEvents(false)})

	block := func(path, cell string) string { // cell's block of `summary -cells`
		_, rest, ok := strings.Cut(runCLI(t, "summary", path, "-cells"), "\ncell "+cell+"\n")
		if !ok {
			t.Fatalf("summary -cells of %s has no block for %s", path, cell)
		}
		b, _, _ := strings.Cut(rest, "\ncell ")
		return b
	}
	for cell, path := range alone {
		if got, want := block(both, cell), block(path, cell); got != want {
			t.Errorf("summary -cells, %s interleaved:\n%s\nalone:\n%s", cell, got, want)
		}
		if got, want := runCLI(t, "timeline", both, "-cell", cell), runCLI(t, "timeline", path); got != want {
			t.Errorf("timeline -cell %s interleaved:\n%s\nalone:\n%s", cell, got, want)
		}
		if got, want := runDoctor(t, "replay", both, "-cell", cell), runDoctor(t, "replay", path, "-cell", cell); got != want {
			t.Errorf("doctor replay -cell %s interleaved:\n%s\nalone:\n%s", cell, got, want)
		}
	}
	if got, want := runCLI(t, "timeline", both, "-cell", "cell-b"), runCLI(t, "timeline", clean); got != want {
		t.Errorf("timeline of the resumed cell:\n%s\nwant its uninterrupted run's:\n%s", got, want)
	}
	if got, want := runDoctor(t, "replay", both, "-cell", "cell-b"), runDoctor(t, "replay", clean); got != want {
		t.Errorf("doctor replay of the resumed cell:\n%s\nwant its uninterrupted run's:\n%s", got, want)
	}
	if got, want := withoutLines(block(both, "cell-b"), "  events:", "  durable:"), withoutLines(block(clean, "cell-b"), "  events:", "  durable:"); got != want {
		t.Errorf("summary of the resumed cell:\n%s\nwant its uninterrupted run's:\n%s", got, want)
	}
}
