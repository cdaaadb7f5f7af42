package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calibre/cmd/internal/benchfile"
	"calibre/cmd/internal/climain"
)

// warnEnvMismatch surfaces recording-environment differences between a
// freshly emitted bench file and its committed golden. The committed
// baselines are single-core (gomaxprocs=1), so on any multi-core test
// host timings are incomparable; the golden checks above deliberately
// compare only schemas and measurement sets, and this makes the reason
// visible in -v output instead of silent.
func warnEnvMismatch(t *testing.T, emitted, golden string) {
	t.Helper()
	a, err := benchfile.Read(emitted)
	if err != nil {
		t.Fatalf("read emitted envelope: %v", err)
	}
	b, err := benchfile.Read(golden)
	if err != nil {
		t.Fatalf("read golden envelope: %v", err)
	}
	for _, w := range benchfile.EnvMismatch(a, b) {
		t.Logf("bench env mismatch (emitted vs golden): %s", w)
	}
}

func TestListPrintsExperimentsAndKernels(t *testing.T) {
	out := climain.CaptureStdout(t, func() error { return run([]string{"-list"}) })
	for _, needle := range []string{"experiments:", "kernels", "codec", "delta", "sweep", "hotpath"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("-list output missing %q:\n%s", needle, out)
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestKernelHarnessEmitsGoldenSchema runs the kernel harness at quick scale
// and validates the emitted BENCH_kernels.json both structurally and
// against the committed golden file: same schema version and the same set
// of (op, shape) measurements, so the perf trajectory stays comparable
// across PRs. Timing values are host-dependent and deliberately unchecked.
func TestKernelHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "kernels", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "kernel bench:") || !strings.Contains(out, "matmul") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_kernels.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got KernelBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	if got.Schema != KernelBenchSchema {
		t.Fatalf("schema = %q, want %q", got.Schema, KernelBenchSchema)
	}
	if got.GOOS == "" || got.GOARCH == "" || got.GOMaxProcs < 1 || got.Workers < 1 {
		t.Fatalf("host metadata incomplete: %+v", got)
	}
	if len(got.Records) == 0 {
		t.Fatal("no records emitted")
	}
	for _, r := range got.Records {
		if r.Op == "" || r.Shape == "" {
			t.Fatalf("record missing op/shape: %+v", r)
		}
		if r.NsOp <= 0 || r.SerialNsOp <= 0 || r.SpeedupVsSerial <= 0 {
			t.Fatalf("record has non-positive timings: %+v", r)
		}
		if r.AllocsOp < 0 {
			t.Fatalf("record has negative allocs: %+v", r)
		}
	}

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_kernels.json: %v", err)
	}
	var golden KernelBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	if golden.Schema != got.Schema {
		t.Fatalf("golden schema %q != emitted %q", golden.Schema, got.Schema)
	}
	key := func(r KernelBenchRecord) string { return r.Op + "|" + r.Shape }
	want := make(map[string]bool, len(golden.Records))
	for _, r := range golden.Records {
		want[key(r)] = true
	}
	have := make(map[string]bool, len(got.Records))
	for _, r := range got.Records {
		have[key(r)] = true
	}
	for k := range want {
		if !have[k] {
			t.Errorf("measurement %s present in golden file but not emitted", k)
		}
	}
	for k := range have {
		if !want[k] {
			t.Errorf("measurement %s emitted but missing from golden file (regenerate it: go run ./cmd/calibre-bench -exp kernels)", k)
		}
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_kernels.json"), filepath.Join("..", "..", "BENCH_kernels.json"))
}

// TestDeltaHarnessEmitsGoldenSchema runs the update-plane harness at
// quick scale and validates BENCH_delta.json structurally, against the
// committed golden file, and against the acceptance criteria the update
// plane ships under: compressible patterns (and the real training
// trajectory) must beat the dense wire on bytes per round, and the
// worst-case pattern must fall back to dense rather than expand. Sizes
// are deterministic; timings are host-dependent and only sanity-checked.
func TestDeltaHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "delta", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "delta bench:") || !strings.Contains(out, "sgd-step") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	check := func(file DeltaBenchFile, where string) {
		t.Helper()
		if file.Schema != DeltaBenchSchema {
			t.Fatalf("%s schema = %q, want %q", where, file.Schema, DeltaBenchSchema)
		}
		if len(file.Wire) == 0 || len(file.Rounds) == 0 || len(file.Aggregate) == 0 {
			t.Fatalf("%s missing sections: %d wire, %d rounds, %d aggregation", where, len(file.Wire), len(file.Rounds), len(file.Aggregate))
		}
		for _, r := range file.Wire {
			if r.WireBytes > r.DenseBytes {
				t.Errorf("%s pattern %s ships %d bytes, above the dense %d (fallback broken)", where, r.Pattern, r.WireBytes, r.DenseBytes)
			}
			switch r.Pattern {
			case "random-worst-case":
				if r.ShipsDelta {
					t.Errorf("%s worst-case pattern did not fall back to dense: %+v", where, r)
				}
			default:
				if !r.ShipsDelta || r.Ratio <= 1 {
					t.Errorf("%s pattern %s did not compress: %+v", where, r.Pattern, r)
				}
			}
		}
		for _, r := range file.Rounds {
			if r.WireBytes >= r.DenseBytes || r.Ratio <= 1 {
				t.Errorf("%s real round %d did not compress: %+v", where, r.Round, r)
			}
		}
		for _, r := range file.Aggregate {
			if r.SerialNsOp <= 0 || r.ShardNsOp <= 0 {
				t.Errorf("%s aggregation record has non-positive timings: %+v", where, r)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_delta.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got DeltaBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	check(got, "emitted")

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_delta.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_delta.json: %v", err)
	}
	var golden DeltaBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	check(golden, "golden")
	patterns := make(map[string]bool)
	for _, r := range got.Wire {
		patterns[r.Pattern] = true
	}
	for _, r := range golden.Wire {
		if !patterns[r.Pattern] {
			t.Errorf("golden pattern %s not emitted (regenerate: go run ./cmd/calibre-bench -exp delta -out .)", r.Pattern)
		}
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_delta.json"), filepath.Join("..", "..", "BENCH_delta.json"))
}

// TestCodecHarnessEmitsGoldenSchema runs the codec harness at quick scale
// and validates BENCH_codec.json structurally, against the committed
// golden file, and against the acceptance criterion the subsystem ships
// under: the binary codec must beat gob on encoded size for every
// representative state (size is deterministic; timings are host-dependent
// and only checked for sanity).
func TestCodecHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "codec", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "codec bench:") || !strings.Contains(out, "model-4k") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_codec.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got CodecBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	if got.Schema != CodecBenchSchema {
		t.Fatalf("schema = %q, want %q", got.Schema, CodecBenchSchema)
	}
	if len(got.Records) < 4 {
		t.Fatalf("only %d records emitted", len(got.Records))
	}
	for _, r := range got.Records {
		if r.State == "" || r.Elems <= 0 {
			t.Fatalf("record missing state/elems: %+v", r)
		}
		if r.CodecBytes <= 0 || r.GobBytes <= 0 || r.CodecBytes >= r.GobBytes {
			t.Fatalf("codec must encode smaller than gob: %+v", r)
		}
		if r.CodecEncNs <= 0 || r.CodecDecNs <= 0 || r.GobEncNs <= 0 || r.GobDecNs <= 0 {
			t.Fatalf("record has non-positive timings: %+v", r)
		}
	}

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_codec.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_codec.json: %v", err)
	}
	var golden CodecBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	if golden.Schema != got.Schema {
		t.Fatalf("golden schema %q != emitted %q", golden.Schema, got.Schema)
	}
	states := make(map[string]bool, len(got.Records))
	for _, r := range got.Records {
		states[r.State] = true
	}
	for _, r := range golden.Records {
		if !states[r.State] {
			t.Errorf("golden state %s not emitted (regenerate: go run ./cmd/calibre-bench -exp codec -out .)", r.State)
		}
		if r.CodecBytes >= r.GobBytes || r.EncSpeedup <= 1 || r.DecSpeedup <= 1 {
			t.Errorf("committed golden record does not beat gob on size and time: %+v", r)
		}
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_codec.json"), filepath.Join("..", "..", "BENCH_codec.json"))
}

// TestTraceHarnessEmitsGoldenSchema runs the flight-recorder harness at
// quick scale and validates BENCH_trace.json structurally and against the
// committed golden file. Throughput and overhead are host-dependent and
// only sanity-checked (the per-round overhead may legitimately be
// negative: at smoke scale the recorder's cost sits below scheduler
// jitter); the no-perturbation contract itself is pinned by the
// bit-identity tests in internal/fl and internal/flnet.
func TestTraceHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "trace", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "trace bench:") || !strings.Contains(out, "events/sec") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	check := func(file TraceBenchFile, where string) {
		t.Helper()
		if file.Schema != TraceBenchSchema {
			t.Fatalf("%s schema = %q, want %q", where, file.Schema, TraceBenchSchema)
		}
		if file.GOOS == "" || file.GOARCH == "" || file.GOMaxProcs < 1 {
			t.Fatalf("%s host metadata incomplete: %+v", where, file)
		}
		e := file.Emit
		if e.Events <= 0 || e.EventsPerSec <= 0 || e.NsPerEvent <= 0 {
			t.Errorf("%s emit section has non-positive measurements: %+v", where, e)
		}
		if e.BytesWritten <= 0 || e.BytesPerEvent <= 0 {
			t.Errorf("%s emit section wrote no bytes: %+v", where, e)
		}
		r := file.Round
		if r.Reps <= 0 || r.RoundsPerRun <= 0 || r.EventsPerRun <= 0 {
			t.Errorf("%s round section measured nothing: %+v", where, r)
		}
		if r.BareMS < 0 || r.TracedMS <= 0 {
			t.Errorf("%s round section has bad timings: %+v", where, r)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_trace.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got TraceBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	check(got, "emitted")

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trace.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_trace.json: %v", err)
	}
	var golden TraceBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	check(golden, "golden")
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_trace.json"), filepath.Join("..", "..", "BENCH_trace.json"))
}

// TestSweepHarnessEmitsGoldenSchema runs the sweep-scheduler harness at
// quick scale and validates BENCH_sweep.json structurally and against
// the committed golden file: same schema version and the same worker
// sweep, with every cell succeeding. Timings are host-dependent and only
// sanity-checked.
func TestSweepHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "sweep", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "sweep bench:") || !strings.Contains(out, "workers=4") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	check := func(file SweepBenchFile, where string) {
		t.Helper()
		if file.Schema != SweepBenchSchema {
			t.Fatalf("%s schema = %q, want %q", where, file.Schema, SweepBenchSchema)
		}
		if file.GOOS == "" || file.GOARCH == "" || file.GOMaxProcs < 1 {
			t.Fatalf("%s host metadata incomplete: %+v", where, file)
		}
		if file.Grid.Cells < 6 || file.Grid.Methods < 3 {
			t.Fatalf("%s grid too small to exercise the scheduler: %+v", where, file.Grid)
		}
		workers := map[int]bool{}
		for _, r := range file.Records {
			workers[r.Workers] = true
			if r.WallMS <= 0 || r.CellsPerSec <= 0 || r.SpeedupVsOne <= 0 {
				t.Errorf("%s record has non-positive measurements: %+v", where, r)
			}
			if r.FailedCells != 0 {
				t.Errorf("%s bench grid had %d failed cells at %d workers", where, r.FailedCells, r.Workers)
			}
		}
		for _, w := range []int{1, 2, 4} {
			if !workers[w] {
				t.Errorf("%s missing workers=%d record", where, w)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_sweep.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got SweepBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	check(got, "emitted")

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sweep.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_sweep.json: %v", err)
	}
	var golden SweepBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	check(golden, "golden")
	if golden.GOMaxProcs == 1 && golden.Note == "" {
		t.Error("golden file recorded on a single core must carry the caveat note")
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_sweep.json"), filepath.Join("..", "..", "BENCH_sweep.json"))
}

// TestHealthHarnessEmitsGoldenSchema runs the health-plane harness at
// quick scale and validates BENCH_health.json structurally and against
// the committed golden file. Throughput and overhead are host-dependent
// and only sanity-checked (the per-round overhead may legitimately be
// negative: at smoke scale the monitor's cost sits below scheduler
// jitter); the no-perturbation contract itself is pinned by the
// bit-identity tests in internal/fl and internal/flnet.
func TestHealthHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "health", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "health bench:") || !strings.Contains(out, "rounds/sec") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	check := func(file HealthBenchFile, where string) {
		t.Helper()
		if file.Schema != HealthBenchSchema {
			t.Fatalf("%s schema = %q, want %q", where, file.Schema, HealthBenchSchema)
		}
		if file.GOOS == "" || file.GOARCH == "" || file.GOMaxProcs < 1 {
			t.Fatalf("%s host metadata incomplete: %+v", where, file)
		}
		o := file.Observe
		if o.Rounds <= 0 || o.ClientsPerRound <= 0 {
			t.Errorf("%s observe section measured nothing: %+v", where, o)
		}
		if o.RoundsPerSec <= 0 || o.NsPerRound <= 0 || o.NsPerClient <= 0 {
			t.Errorf("%s observe section has non-positive measurements: %+v", where, o)
		}
		r := file.Round
		if r.Reps <= 0 || r.RoundsPerRun <= 0 {
			t.Errorf("%s round section measured nothing: %+v", where, r)
		}
		if r.BareMS < 0 || r.MonitoredMS <= 0 {
			t.Errorf("%s round section has bad timings: %+v", where, r)
		}
		if r.AlertsPerRun < 0 {
			t.Errorf("%s round section has negative alert count: %+v", where, r)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_health.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got HealthBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	check(got, "emitted")

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_health.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_health.json: %v", err)
	}
	var golden HealthBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	check(golden, "golden")
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_health.json"), filepath.Join("..", "..", "BENCH_health.json"))
}

// TestHotpathHarnessEmitsGoldenSchema runs the hot-path harness at quick
// scale and validates BENCH_hotpath.json structurally, against the
// committed golden file, and against the acceptance criterion the
// allocation-free path ships under: fused kernels plus the buffer arena
// must at least halve heap allocations per federation round relative to
// the unfused/arena-free baseline in the same file. The emitted quick run
// checks structure and configs only (timings and exact counts are
// host-dependent); the ≥2× gate applies to both files' own ratios.
func TestHotpathHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := climain.CaptureStdout(t, func() error {
		return run([]string{"-exp", "hotpath", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "hotpath bench:") || !strings.Contains(out, "fused-arena") {
		t.Fatalf("harness output not parseable:\n%s", out)
	}

	check := func(file HotpathBenchFile, where string) {
		t.Helper()
		if file.Schema != HotpathBenchSchema {
			t.Fatalf("%s schema = %q, want %q", where, file.Schema, HotpathBenchSchema)
		}
		if file.GOOS == "" || file.GOARCH == "" || file.GOMaxProcs < 1 || file.Workers < 1 {
			t.Fatalf("%s host metadata incomplete: %+v", where, file)
		}
		if file.Method == "" || file.Rounds < 1 || file.Clients < 1 {
			t.Fatalf("%s workload metadata incomplete: %+v", where, file)
		}
		if len(file.Configs) != len(hotpathConfigs) {
			t.Fatalf("%s has %d configs, want %d", where, len(file.Configs), len(hotpathConfigs))
		}
		for i, r := range file.Configs {
			if r.Config != hotpathConfigs[i].name || r.Fused != hotpathConfigs[i].fused || r.Arena != hotpathConfigs[i].arena {
				t.Fatalf("%s config %d = %+v, want %+v", where, i, r, hotpathConfigs[i])
			}
			if r.AllocsPerRound <= 0 || r.BytesPerRound <= 0 || r.NsPerRound <= 0 {
				t.Fatalf("%s record has non-positive measurements: %+v", where, r)
			}
			if r.AllocsVsBase <= 0 || r.BytesVsBase <= 0 {
				t.Fatalf("%s record has non-positive reduction ratios: %+v", where, r)
			}
		}
		// The shipping acceptance criterion: the full hot path at least
		// halves allocations per round vs the baseline measured alongside it.
		final := file.Configs[len(file.Configs)-1]
		if final.AllocsVsBase < 2 {
			t.Errorf("%s fused-arena allocation reduction %.2fx < 2x acceptance floor", where, final.AllocsVsBase)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_hotpath.json"))
	if err != nil {
		t.Fatalf("read emitted json: %v", err)
	}
	var got HotpathBenchFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("emitted json does not parse: %v", err)
	}
	check(got, "emitted")

	goldenRaw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatalf("read committed golden BENCH_hotpath.json: %v", err)
	}
	var golden HotpathBenchFile
	if err := json.Unmarshal(goldenRaw, &golden); err != nil {
		t.Fatalf("golden json does not parse: %v", err)
	}
	check(golden, "golden")
	if golden.GOMaxProcs == 1 && golden.Note == "" {
		t.Error("golden file recorded on a single core must carry the caveat note")
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_hotpath.json"), filepath.Join("..", "..", "BENCH_hotpath.json"))
}

// TestKernelBenchFileNamesItsImplementation pins the kernel_impl field: the
// re-read the harness ends on rejects a file that does not say which row
// primitives it timed, and the committed BENCH_kernels.json passes it.
func TestKernelBenchFileNamesItsImplementation(t *testing.T) {
	committed := filepath.Join("..", "..", "BENCH_kernels.json")
	if err := checkKernelBenchFile(committed); err != nil {
		t.Fatalf("committed file: %v", err)
	}
	raw, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "kernel_impl")
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_kernels.json")
	if err := os.WriteFile(path, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkKernelBenchFile(path); err == nil || !strings.Contains(err.Error(), "kernel_impl") {
		t.Fatalf("file without kernel_impl: err = %v, want a kernel_impl error", err)
	}
}
