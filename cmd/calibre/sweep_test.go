package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"calibre/internal/obs"
)

// acceptanceGrid is the ≥12-cell smoke grid from the issue's acceptance
// criteria: 3 methods × 2 partitions × 2 seeds.
const acceptanceGrid = `{
	"name": "cli-acceptance",
	"methods": ["fedavg", "fedavg-ft", "perfedavg"],
	"settings": ["cifar10-q(2,500)", "cifar10-d(0.3,600)"],
	"seeds": [1, 2],
	"baseline": "fedavg-ft"
}`

func writeGrid(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSweepPlan(t *testing.T) {
	grid := writeGrid(t, acceptanceGrid)
	out := captureStdout(t, func() error {
		return run([]string{"sweep", "plan", "-grid", grid})
	})
	if !strings.Contains(out, "12 cells") || !strings.Contains(out, "method=fedavg|setting=cifar10-q(2,500)") {
		t.Fatalf("plan output not parseable:\n%s", out)
	}
	if strings.Count(out, "env-seed") != 12 {
		t.Fatalf("plan did not print 12 cells:\n%s", out)
	}
}

// TestSweepRunKillResumeReport drives the full CLI acceptance flow: run
// the 12-cell grid to completion, simulate a mid-sweep kill by truncating
// the manifest to its first 6 cells, resume, and require the regenerated
// report artifacts to be byte-identical to the uninterrupted run's.
func TestSweepRunKillResumeReport(t *testing.T) {
	grid := writeGrid(t, acceptanceGrid)
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return run([]string{"sweep", "run", "-grid", grid, "-out", dir, "-workers", "2"})
	})
	if !strings.Contains(out, "sweep completed") || !strings.Contains(out, "# Sweep report: cli-acceptance") {
		t.Fatalf("run output not parseable:\n%s", out)
	}
	if !strings.Contains(out, "[12/12]") {
		t.Fatalf("run did not report 12 cells:\n%s", out)
	}
	artifacts := map[string][]byte{}
	for _, name := range []string{"sweep-cells.csv", "sweep-methods.csv", "sweep-report.md"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
		artifacts[name] = data
	}

	// Simulate a kill after 6 cells: a second directory whose manifest
	// holds only the first half of the completed cells (the manifest is
	// rewritten atomically per cell, so this is exactly what a SIGKILL
	// mid-sweep leaves behind).
	var man struct {
		Schema      string                     `json:"schema"`
		Name        string                     `json:"name,omitempty"`
		Fingerprint string                     `json:"fingerprint"`
		Cells       map[string]json.RawMessage `json:"cells"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "sweep-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Cells) != 12 {
		t.Fatalf("manifest holds %d cells, want 12", len(man.Cells))
	}
	keys := make([]string, 0, len(man.Cells))
	for k := range man.Cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys[6:] {
		delete(man.Cells, k)
	}
	killedDir := t.TempDir()
	truncated, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(killedDir, "sweep-manifest.json"), truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	out = captureStdout(t, func() error {
		return run([]string{"sweep", "resume", "-grid", grid, "-out", killedDir, "-workers", "2"})
	})
	if !strings.Contains(out, "6 cells restored from manifest") {
		t.Fatalf("resume did not restore the completed half:\n%s", out)
	}
	if !strings.Contains(out, "12 cells, 6 already in the manifest, 6 to run") || !strings.Contains(out, "[6/6]") {
		t.Fatalf("resume did not run exactly the missing 6 cells:\n%s", out)
	}
	for name, want := range artifacts {
		got, err := os.ReadFile(filepath.Join(killedDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs between uninterrupted and kill+resume runs", name)
		}
	}

	// report regenerates the same artifacts from the manifest alone.
	for _, name := range []string{"sweep-cells.csv", "sweep-methods.csv", "sweep-report.md"} {
		if err := os.Remove(filepath.Join(killedDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	out = captureStdout(t, func() error {
		return run([]string{"sweep", "report", "-grid", grid, "-out", killedDir})
	})
	if !strings.Contains(out, "# Sweep report: cli-acceptance") {
		t.Fatalf("report output not parseable:\n%s", out)
	}
	for name, want := range artifacts {
		got, err := os.ReadFile(filepath.Join(killedDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s differs after report regeneration", name)
		}
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	grid := writeGrid(t, acceptanceGrid)
	if err := run([]string{"sweep"}); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"sweep", "frob", "-grid", grid}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"sweep", "plan"}); err == nil {
		t.Fatal("missing -grid accepted")
	}
	if err := run([]string{"sweep", "run", "-grid", grid}); err == nil {
		t.Fatal("run without -out accepted")
	}
	if err := run([]string{"sweep", "plan", "-grid", writeGrid(t, `{"methods":["nope"],"settings":["cifar10-q(2,500)"],"seeds":[1]}`)}); err == nil {
		t.Fatal("invalid grid accepted")
	}
	if err := run([]string{"sweep", "report", "-grid", grid, "-out", t.TempDir()}); err == nil {
		t.Fatal("report without a manifest accepted")
	}
	if err := run([]string{"sweep", "plan", "-grid", grid, "stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := run([]string{"sweep", "run", "-grid", grid, "-out", t.TempDir(), "-health", "frobnicate(9)"}); err == nil {
		t.Fatal("invalid -health spec accepted")
	}
}

// TestWatchSmoke runs `calibre sweep watch` against a live metrics
// endpoint: a registry pre-populated the way a mid-sweep process would
// be, served over real HTTP. -once renders a single progress line.
func TestWatchSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge(obs.GaugeSweepCellsPlanned).Set(6)
	reg.Gauge(obs.GaugeSweepCellsPending).Set(3)
	reg.Gauge(obs.GaugeSweepCellsInFlight).Set(2)
	reg.Counter(obs.CounterSweepCellsDone).Add(3)
	reg.Counter(obs.CounterAdversarialUpdates).Add(5)
	reg.Counter(obs.CounterRejectedUpdates).Add(2)
	reg.Counter(obs.CounterHealthAlerts).Add(4)
	reg.Counter(obs.CounterHealthCritical).Add(1)
	reg.Gauge(obs.GaugeHealthSuspects).Set(2)
	reg.ObserveRound(obs.RoundSample{
		Runtime: "sim", Round: 7, Participants: 4, Responders: 4,
		MeanLoss: 0.5, UplinkWireBytes: 1 << 11,
	})
	srv, addr, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out := captureStdout(t, func() error {
		return run([]string{"sweep", "watch", "-addr", addr.String(), "-once"})
	})
	for _, needle := range []string{
		"cells 3/6 done", "2 in flight", "3 pending", "rounds 1",
		"uplink 2.0KiB", "sim round 7: 4/4 responded, loss 0.5000",
		"hostile: 5 adversarial, 2 rejected",
		"health: 4 alerts (1 critical), 2 suspects",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("watch line missing %q:\n%s", needle, out)
		}
	}

	// -json swaps the human line for one machine-readable snapshot per poll.
	out = captureStdout(t, func() error {
		return run([]string{"sweep", "watch", "-addr", addr.String(), "-once", "-json"})
	})
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("watch -json output is not one JSON snapshot: %v\n%s", err, out)
	}
	if snap.Counters[obs.CounterHealthAlerts] != 4 || snap.Gauges[obs.GaugeHealthSuspects] != 2 {
		t.Fatalf("watch -json snapshot dropped health metrics: %+v", snap)
	}
}

// TestWatchUnreachableEndpointFails pins the bounded-retry contract: a
// watch pointed at a dead port errors out once -timeout elapses instead
// of spinning forever.
func TestWatchUnreachableEndpointFails(t *testing.T) {
	err := run([]string{"sweep", "watch", "-addr", "127.0.0.1:1", "-timeout", "150ms", "-interval", "50ms"})
	if err == nil || !strings.Contains(err.Error(), "no answer") {
		t.Fatalf("want a no-answer error, got %v", err)
	}
	if err := run([]string{"sweep", "watch", "stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}
