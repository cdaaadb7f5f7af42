package main

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/store"
)

// seedStore writes two snapshots the subcommands can operate on.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	fp := store.Fingerprint("server", "fedavg-ft", "cifar10-q(2,500)", "smoke", "7")
	for round := 1; round <= 2; round++ {
		state := fl.SimState{
			Round:          round,
			Global:         []float64{1.5, -2.25, 0.5, float64(round)},
			History:        make([]fl.RoundStats, round),
			EligibleCounts: make([]int, round),
		}
		for r := 0; r < round; r++ {
			state.History[r] = fl.RoundStats{Round: r, Participants: []int{0, 1}, MeanLoss: 0.5}
			state.EligibleCounts[r] = 3
		}
		if _, err := st.Save(&store.Snapshot{
			Meta:  store.Meta{Seed: 7, Fingerprint: fp, Runtime: "server"},
			State: state,
		}); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	return dir
}

func TestCkptListInspectDiff(t *testing.T) {
	dir := seedStore(t)

	out := captureStdout(t, func() error { return run([]string{"ckpt", "list", "-dir", dir}) })
	for _, needle := range []string{"version", "round", "server"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("list output missing %q:\n%s", needle, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + 2 versions
		t.Fatalf("list printed %d lines, want 3:\n%s", lines, out)
	}

	out = captureStdout(t, func() error { return run([]string{"ckpt", "inspect", "-dir", dir}) })
	for _, needle := range []string{"version:      2", "round:        2", "params:       4", "round 0:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("inspect output missing %q:\n%s", needle, out)
		}
	}

	out = captureStdout(t, func() error { return run([]string{"ckpt", "diff", "-dir", dir, "-a", "1", "-b", "2"}) })
	if !strings.Contains(out, "+1 rounds") || !strings.Contains(out, "1 changed") {
		t.Fatalf("diff output unexpected:\n%s", out)
	}
}

func TestCkptExport(t *testing.T) {
	dir := seedStore(t)

	out := captureStdout(t, func() error { return run([]string{"ckpt", "export", "-dir", dir, "-format", "csv"}) })
	if !strings.HasPrefix(out, "index,value\n") || !strings.Contains(out, "1,-2.25") {
		t.Fatalf("csv export unexpected:\n%s", out)
	}

	gobPath := filepath.Join(t.TempDir(), "snap.gob")
	captureStdout(t, func() error {
		return run([]string{"ckpt", "export", "-dir", dir, "-version", "1", "-format", "gob", "-out", gobPath})
	})
	f, err := os.Open(gobPath)
	if err != nil {
		t.Fatalf("open gob export: %v", err)
	}
	defer f.Close()
	var snap store.Snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		t.Fatalf("decode gob export: %v", err)
	}
	if snap.State.Round != 1 || len(snap.State.Global) != 4 {
		t.Fatalf("gob export round-trip: %+v", snap.State)
	}
}

func TestCkptRejectsBadInvocations(t *testing.T) {
	dir := seedStore(t)
	if err := run([]string{"ckpt"}); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"ckpt", "frobnicate", "-dir", dir}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"ckpt", "list"}); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if err := run([]string{"ckpt", "list", "-dir", filepath.Join(dir, "nope")}); err == nil {
		t.Fatal("nonexistent dir accepted")
	}
	if err := run([]string{"ckpt", "inspect", "-dir", dir, "-version", "9"}); err == nil {
		t.Fatal("missing version accepted")
	}
	if err := run([]string{"ckpt", "diff", "-dir", dir, "-a", "1"}); err == nil {
		t.Fatal("diff without -b accepted")
	}
	if err := run([]string{"ckpt", "export", "-dir", dir, "-format", "gob"}); err == nil {
		t.Fatal("gob export to stdout accepted")
	}
	if err := run([]string{"ckpt", "export", "-dir", dir, "-format", "xml"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}
