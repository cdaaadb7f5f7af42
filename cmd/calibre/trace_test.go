package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/trace"
)

// writeSyntheticTrace emits a small deterministic two-round trace (one
// with a drop) to a temp file and returns its path.
func writeSyntheticTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{Clock: trace.StepClock(1_000_000)})
	for round := 0; round < 2; round++ {
		ts := rec.Now()
		rec.Emit(trace.Event{Kind: trace.KindRoundStart, TS: ts, Runtime: "sim", Round: round, Client: -1, N: 2})
		rec.Emit(trace.Event{Kind: trace.KindClientDispatch, TS: rec.Now(), Runtime: "sim", Round: round, Client: 0})
		rec.Emit(trace.Event{Kind: trace.KindClientUpdate, TS: rec.Now(), Runtime: "sim", Round: round, Client: 0,
			Wire: "delta", Bytes: 128, Dur: 2_000_000, Loss: 0.5})
		rec.Emit(trace.Event{Kind: trace.KindClientDrop, TS: rec.Now(), Runtime: "sim", Round: round, Client: 1,
			Reason: trace.DropStraggler})
		rec.Emit(trace.Event{Kind: trace.KindRoundEnd, TS: rec.Now(), Runtime: "sim", Round: round, Client: -1,
			N: 1, Dur: 5_000_000, Loss: 0.5})
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
}

// TestSummaryCheckpointStall: the durable line answers "were rounds bounded
// by their checkpoints?" — saves, and how long the loop was blocked on them.
func TestSummaryCheckpointStall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{Clock: trace.StepClock(1)})
	rec.Emit(trace.Event{Kind: trace.KindResume, TS: rec.Now(), Runtime: "server", Round: 3, Client: -1})
	for round, stall := range []int64{1_000_000, 0, 3_000_000} {
		rec.Emit(trace.Event{Kind: trace.KindCheckpointSave, TS: rec.Now(), Runtime: "server", Round: round, Client: -1, Dur: stall})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	want := "durable:  3 checkpoint saves (loop stalled 4.0ms total, max 3.0ms), 1 resumes"
	if out := runCLI(t, "summary", path); !strings.Contains(out, want) {
		t.Errorf("summary missing %q:\n%s", want, out)
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
