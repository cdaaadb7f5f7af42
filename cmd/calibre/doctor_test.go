package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/trace"
)

// runDoctor drives `calibre doctor ARGS` and returns its rendered output.
func runDoctor(t *testing.T, args ...string) string {
	t.Helper()
	return captureStdout(t, func() error { return run(append([]string{"doctor"}, args...)) })
}

// hostileTrace runs one hostile smoke-scale federation with both a live
// monitor and a flight recorder attached, returning the trace path and
// the live monitor's diagnosis. The deterministic clock makes the trace
// bytes — and therefore every replay — reproducible.
func hostileTrace(t *testing.T, dir string) (string, health.Diagnosis) {
	t.Helper()
	setting, ok := experiments.Settings()["cifar10-q(2,500)"]
	if !ok {
		t.Fatal("setting cifar10-q(2,500) missing")
	}
	env, err := experiments.BuildEnvironment(setting, experiments.ScaleSmoke, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := experiments.BuildMethod(env, "fedavg-ft")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "hostile.trace")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{Clock: trace.StepClock(1)})
	hc := health.DefaultConfig()
	mon := health.NewMonitor(&hc)
	_, err = experiments.RunBuiltMethodWith(context.Background(), env, m, func(cfg *fl.SimConfig) {
		cfg.Rounds = 8
		cfg.ClientsPerRound = 5 // norm-z needs round cohorts of ≥4
		cfg.Parallelism = 1     // single-goroutine regime for StepClock
		cfg.Adversary = &fl.Adversary{Kind: fl.AdvSignFlip, Scale: 6, Frac: 0.3}
		cfg.Recorder = rec
		cfg.Health = mon
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path, mon.Diagnosis()
}

// TestDoctorReplayMatchesLiveMonitor is the replay-fidelity pin: the
// diagnosis `calibre doctor` reconstructs from a monitored run's trace is
// identical — as a value and as rendered text — to the diagnosis the
// live monitor held when that run finished.
func TestDoctorReplayMatchesLiveMonitor(t *testing.T) {
	path, live := hostileTrace(t, t.TempDir())
	if len(live.Alerts) == 0 || len(live.Suspects) == 0 {
		t.Fatalf("hostile run raised nothing — fidelity test is vacuous: %+v", live)
	}

	var want bytes.Buffer
	if err := live.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	got := runDoctor(t, "replay", path)
	if got != want.String() {
		t.Errorf("replay text diverges from the live diagnosis:\n--- live ---\n%s--- replay ---\n%s", want.String(), got)
	}

	var replayed health.Diagnosis
	if err := json.Unmarshal([]byte(runDoctor(t, "replay", path, "-json")), &replayed); err != nil {
		t.Fatalf("replay -json: %v", err)
	}
	if !reflect.DeepEqual(replayed, live) {
		t.Errorf("replay diagnosis = %+v\nwant live %+v", replayed, live)
	}

	// Replay is deterministic: two invocations render identical bytes.
	if again := runDoctor(t, "replay", path); again != got {
		t.Error("two replays of the same trace differ")
	}
}

// TestDoctorLiveOverHTTP polls a real /metrics endpoint whose round ring
// carries a norm outlier and checks the doctor's monitor reaches the
// same verdict as one fed the samples directly.
func TestDoctorLiveOverHTTP(t *testing.T) {
	samples := make([]obs.RoundSample, 0, 3)
	for round := 0; round < 3; round++ {
		s := obs.RoundSample{Runtime: "sim", Round: round, Participants: 5, Responders: 5, MeanLoss: 1}
		for id := 0; id < 5; id++ {
			norm := 0.2 + 0.01*float64(id)
			if id == 4 {
				norm = 50 // screaming outlier every round
			}
			s.Clients = append(s.Clients, obs.ClientSample{ID: id, Loss: 1, Norm: norm})
		}
		samples = append(samples, s)
	}
	reg := obs.NewRegistry()
	hc := health.DefaultConfig()
	want := health.NewMonitor(&hc)
	for _, s := range samples {
		reg.ObserveRound(s)
		want.ObserveRound(s)
	}
	wd := want.Diagnosis()
	if !reflect.DeepEqual(wd.Suspects, []int{4}) {
		t.Fatalf("reference monitor did not flag the outlier: %+v", wd)
	}
	srv, addr, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wantText bytes.Buffer
	if err := wd.WriteText(&wantText); err != nil {
		t.Fatal(err)
	}
	got := runDoctor(t, "live", "-addr", addr.String(), "-once")
	// The -once output is the alert lines followed by the diagnosis.
	if !strings.HasSuffix(got, wantText.String()) {
		t.Errorf("live diagnosis diverges:\nwant suffix\n%s\ngot\n%s", wantText.String(), got)
	}
	if !strings.Contains(got, "suspected adversary") {
		t.Errorf("live mode printed no alert line:\n%s", got)
	}

	var liveJSON health.Diagnosis
	if err := json.Unmarshal([]byte(runDoctor(t, "live", "-addr", addr.String(), "-once", "-json")), &liveJSON); err != nil {
		t.Fatalf("live -json: %v", err)
	}
	if !reflect.DeepEqual(liveJSON, wd) {
		t.Errorf("live -json diagnosis = %+v\nwant %+v", liveJSON, wd)
	}
}

func TestDoctorRejectsBadInput(t *testing.T) {
	if err := run([]string{"doctor"}); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"doctor", "frob"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"doctor", "replay"}); err == nil {
		t.Fatal("replay without a trace file accepted")
	}
	if err := run([]string{"doctor", "replay", "/nonexistent/trace"}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if err := run([]string{"doctor", "live", "-addr", "127.0.0.1:1", "-timeout", "100ms", "-interval", "50ms"}); err == nil || !strings.Contains(err.Error(), "no answer") {
		t.Fatalf("dead endpoint not bounded: %v", err)
	}
	if err := run([]string{"doctor", "live", "-health", "frobnicate(9)"}); err == nil {
		t.Fatal("invalid -health spec accepted")
	}
	if err := run([]string{"doctor", "replay", "-", "stray"}); err == nil {
		t.Fatal("stray positional argument accepted")
	}
}

// TestDoctorReplayCellSplit checks a multi-cell trace is split per cell
// and -cell narrows the report to one federation.
func TestDoctorReplayCellSplit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cells.trace")
	sink, err := trace.OpenFile(path, trace.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(sink, trace.Config{Clock: trace.StepClock(1)})
	for _, cell := range []string{"cell-a", "cell-b"} {
		v := rec.WithCell(cell)
		loss := 1.0
		if cell == "cell-b" {
			loss = 50 // divergence-worthy jump after warmup in cell-b only
		}
		for round := 0; round < 6; round++ {
			l := 1.0
			if round >= 3 {
				l = loss
			}
			v.Emit(trace.Event{Kind: trace.KindRoundStart, TS: v.Now(), Round: round, Client: -1, N: 2, Runtime: "sim"})
			v.Emit(trace.Event{Kind: trace.KindRoundEnd, TS: v.Now(), Round: round, Client: -1, N: 2, Loss: l, Runtime: "sim"})
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := runDoctor(t, "replay", path)
	if !strings.Contains(out, "== cell cell-a ==") || !strings.Contains(out, "== cell cell-b ==") {
		t.Fatalf("multi-cell trace not split per cell:\n%s", out)
	}
	if !strings.Contains(out, "loss-divergence") {
		t.Fatalf("cell-b divergence not diagnosed:\n%s", out)
	}
	only := runDoctor(t, "replay", path, "-cell", "cell-a")
	if strings.Contains(only, "cell-b") || !strings.Contains(only, "no alerts — federation healthy") {
		t.Fatalf("-cell did not isolate the healthy federation:\n%s", only)
	}
}
