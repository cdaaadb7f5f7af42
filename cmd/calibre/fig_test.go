package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// warnEnvMismatch surfaces recording-environment differences between a
// freshly emitted bench file and its committed golden. The committed
// baselines are two-core recordings, so on any other test host timings
// are incomparable; the golden checks below deliberately compare only
// schemas and measurement sets, and this makes the reason visible in -v
// output instead of silent.
func warnEnvMismatch(t *testing.T, emitted, golden string) {
	t.Helper()
	a, err := readBenchFile(emitted)
	if err != nil {
		t.Fatalf("read emitted envelope: %v", err)
	}
	b, err := readBenchFile(golden)
	if err != nil {
		t.Fatalf("read golden envelope: %v", err)
	}
	for _, w := range benchEnvMismatch(a, b) {
		t.Logf("bench env mismatch (emitted vs golden): %s", w)
	}
}

func TestListPrintsExperimentsAndKernels(t *testing.T) {
	out := captureStdout(t, func() error { return run([]string{"fig", "-list"}) })
	// The "(" closes the list: exactly these two harnesses, no third.
	for _, needle := range []string{"experiments:", "perf harnesses: kernels, sweep ("} {
		if !strings.Contains(out, needle) {
			t.Fatalf("-list output missing %q:\n%s", needle, out)
		}
	}
}

// codec … health are the perf modes bench/ replaced: they must be unknown
// experiments and unknown harnesses, not aliases.
func TestUnknownExperimentFails(t *testing.T) {
	for _, exp := range []string{"fig99", "codec", "delta", "trace", "hotpath", "health"} {
		if err := run([]string{"fig", "-exp", exp, "-out", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("fig -exp %s: err = %v, want an unknown-experiment error", exp, err)
		}
		if err := run([]string{"perf", exp, "-quick", "-out", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("perf %s: err = %v, want an unknown-command error", exp, err)
		}
	}
}

// TestKernelHarnessEmitsGoldenSchema runs the kernel harness at quick scale
// and validates the emitted BENCH_kernels.json both structurally and
// against the committed golden file: same schema version and the same set
// of (op, shape) measurements, so the perf trajectory stays comparable
// across PRs. Timing values are host-dependent and deliberately unchecked.
func TestKernelHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return run([]string{"perf", "kernels", "-quick", "-out", dir})
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
	// The bytes_op gate of ci.sh needs the field on the step and round
	// records of both files; a kernel record carries none.
	carriesBytes := func(file string, records []KernelBenchRecord) {
		for _, r := range records {
			if whole := r.Op == "mlp-train-step" || r.Op == "calibre-step" || r.Op == "fl-round" || r.Op == "flnet-round"; whole != (r.BytesOp > 0) {
				t.Errorf("%s: bytes_op = %d on %s %s", file, r.BytesOp, r.Op, r.Shape)
			}
		}
	}
	carriesBytes("emitted", got.Records)

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
	carriesBytes("committed", golden.Records)
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
			t.Errorf("measurement %s emitted but missing from golden file (regenerate it: go run ./cmd/calibre perf kernels -out .)", k)
		}
	}
	warnEnvMismatch(t, filepath.Join(dir, "BENCH_kernels.json"), filepath.Join("..", "..", "BENCH_kernels.json"))
}

// TestSweepHarnessEmitsGoldenSchema runs the sweep-scheduler harness at
// quick scale and validates BENCH_sweep.json structurally and against
// the committed golden file: same schema version and the same worker
// sweep, with every cell succeeding. Timings are host-dependent and only
// sanity-checked.
func TestSweepHarnessEmitsGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return run([]string{"perf", "sweep", "-quick", "-out", dir})
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
