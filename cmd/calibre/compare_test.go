package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calibre/internal/sweep"
)

func TestCompareSmoke(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"compare", "-scale", "smoke", "-seed", "7", "fedavg-ft"})
	})
	if !strings.Contains(out, "fedavg-ft") || !strings.Contains(out, "mean=") {
		t.Fatalf("output not parseable:\n%s", out)
	}
}

func TestCompareAblationVariantSmoke(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"compare", "-scale", "smoke", "-seed", "7", "calibre-simclr[base]"})
	})
	if !strings.Contains(out, "calibre-simclr[base]") {
		t.Fatalf("output not parseable:\n%s", out)
	}
}

// TestCompareDiffSweeps diffs two sweeps of one grid that differ in a
// federation knob which cannot change a result — the straggler policy,
// with nobody straggling — method by method: the cells differ in their
// full key, the A/B join still pairs them, and every drift column is zero.
func TestCompareDiffSweeps(t *testing.T) {
	writeCells := func(straggler string) string {
		t.Helper()
		g := &sweep.Grid{
			Methods:    []string{"fedavg", "fedavg-ft"},
			Settings:   []string{"cifar10-q(2,500)"},
			Seeds:      []int64{1},
			Stragglers: []string{straggler},
		}
		res, err := sweep.Run(context.Background(), g, sweep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "sweep-cells.csv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := sweep.NewReport(res).WriteCellsCSV(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	requeue, drop := writeCells("requeue"), writeCells("drop")
	out := captureStdout(t, func() error {
		return run([]string{"diff", "sweep", requeue, drop})
	})
	if !strings.Contains(out, "sweep diff:") || !strings.Contains(out, "fedavg-ft") {
		t.Fatalf("diff output not parseable:\n%s", out)
	}
	if !strings.Contains(out, "+0.0000") || !strings.Contains(out, "+0.00000") {
		t.Fatalf("the two sweeps should show zero drift:\n%s", out)
	}
	if strings.Contains(out, "only in") {
		t.Fatalf("all cells should be matched by the A/B join:\n%s", out)
	}
}

func TestCompareRejectsBadInput(t *testing.T) {
	if err := run([]string{"compare", "-scale", "smoke"}); err == nil {
		t.Fatal("no methods accepted")
	}
	if err := run([]string{"compare", "-setting", "nope", "fedavg-ft"}); err == nil {
		t.Fatal("unknown setting accepted")
	}
	if err := run([]string{"compare", "-scale", "smoke", "calibre-simclr[bogus]"}); err == nil {
		t.Fatal("unknown regularizer combo accepted")
	}
}

// TestCompareBenchDiff diffs two synthetic `calibre perf` envelopes and
// pins the satellite fix: a gomaxprocs mismatch must produce an explicit
// warning instead of a silent timings comparison, and both files'
// environments must ride along in the output.
func TestCompareBenchDiff(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gomaxprocs, nsOp int) string {
		t.Helper()
		path := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"schema":"calibre/bench-kernels/v1","goos":"linux","goarch":"amd64","gomaxprocs":%d,"workers":1,"records":[{"op":"matmul","shape":"64x64x64","ns_op":%d,"allocs_op":0}]}`, gomaxprocs, nsOp)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 1, 1000)
	b := write("b.json", 8, 500)

	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	errCh := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		errCh <- string(buf)
	}()
	out := captureStdout(t, func() error {
		return run([]string{"diff", "bench", a, b})
	})
	w.Close()
	os.Stderr = oldErr
	stderr := <-errCh

	if !strings.Contains(out, "gomaxprocs=1") || !strings.Contains(out, "gomaxprocs=8") {
		t.Fatalf("both environments must be printed with the diff:\n%s", out)
	}
	if !strings.Contains(out, "ns_op 1000 → 500 (-50.0%)") {
		t.Fatalf("record diff missing:\n%s", out)
	}
	if !strings.Contains(stderr, "warning:") || !strings.Contains(stderr, "gomaxprocs 1 vs 8") {
		t.Fatalf("gomaxprocs mismatch must warn on stderr, got:\n%s", stderr)
	}

	// Identical environments: no warning.
	c := write("c.json", 1, 900)
	os.Stderr, _ = os.Open(os.DevNull)
	r2, w2, _ := os.Pipe()
	os.Stderr = w2
	errCh2 := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r2)
		errCh2 <- string(buf)
	}()
	captureStdout(t, func() error {
		return run([]string{"diff", "bench", a, c})
	})
	w2.Close()
	os.Stderr = oldErr
	if s := <-errCh2; strings.Contains(s, "warning:") {
		t.Fatalf("identical environments should not warn:\n%s", s)
	}
}

// TestCompareBenchFailGate: `diff bench -fail FIELD` is a CI gate — zero
// exit while FIELD holds or falls on every shared record, whatever the
// wall-time fields and the environments do; an error naming the records
// where it rose; and an error when nothing shared carries the field (a
// gate that cannot fail is a typo).
func TestCompareBenchFailGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gomaxprocs, nsOp, allocs int) string {
		t.Helper()
		path := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"schema":"calibre/bench-kernels/v1","goos":"linux","goarch":"amd64","gomaxprocs":%d,"workers":1,"records":[
			{"op":"matmul","shape":"64x64x64","ns_op":%d,"allocs_op":0},
			{"op":"mlp-train-step","shape":"b128","ns_op":%d,"allocs_op":%d}]}`, gomaxprocs, nsOp, 10*nsOp, allocs)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	committed := write("committed.json", 2, 1000, 69)
	slowerLeaner := write("b.json", 1, 5000, 60) // timings and gomaxprocs only warn
	regressed := write("c.json", 2, 900, 80)
	gate := func(a, b, field string) error {
		var err error
		captureStdout(t, func() error {
			err = run([]string{"diff", "bench", "-fail", field, a, b})
			return nil
		})
		return err
	}
	if err := gate(committed, slowerLeaner, "allocs_op"); err != nil {
		t.Fatalf("allocs_op fell, ns_op rose: the gate must pass, got %v", err)
	}
	if err := gate(committed, committed, "allocs_op"); err != nil {
		t.Fatalf("identical files must pass, got %v", err)
	}
	err := gate(committed, regressed, "allocs_op")
	if err == nil || !strings.Contains(err.Error(), "op=mlp-train-step shape=b128: 69 → 80") || strings.Contains(err.Error(), "matmul") {
		t.Fatalf("allocs_op 69 → 80 must fail naming that record only, got %v", err)
	}
	if err := gate(committed, regressed, "allocs"); err == nil || !strings.Contains(err.Error(), "no shared record carries") {
		t.Fatalf("a field no record carries must be refused, got %v", err)
	}
}

func TestCompareBenchRejectsNonEnvelope(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"foo":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"diff", "bench", bad, bad}); err == nil {
		t.Fatal("non-envelope JSON accepted")
	}
	if err := run([]string{"diff", "bench", bad}); err == nil {
		t.Fatal("single argument accepted")
	}
}
