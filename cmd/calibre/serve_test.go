package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/flnet"
	"calibre/internal/obs"
)

// freePort reserves an ephemeral localhost port and releases it for the
// server under test to rebind. The tiny reuse race is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialClientWithRetry runs a flnet client, retrying while the server under
// test is still binding its listener.
func dialClientWithRetry(ctx context.Context, cfg flnet.ClientConfig) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := flnet.RunClient(ctx, cfg)
		if err == nil || !strings.Contains(err.Error(), "dial") || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServerSmokeFederation drives the real `calibre serve` entry
// point through one federated round against in-process flnet clients built
// from the same deterministic experiment world.
func TestServerSmokeFederation(t *testing.T) {
	const (
		setting = "cifar10-q(2,500)"
		seed    = 7
		n       = 2
	)
	addr := freePort(t)

	s, ok := experiments.Settings()[setting]
	if !ok {
		t.Fatalf("setting %q missing", setting)
	}
	env, err := experiments.BuildEnvironment(s, experiments.ScaleSmoke, seed)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	m, err := experiments.BuildMethod(env, "fedavg-ft")
	if err != nil {
		t.Fatalf("BuildMethod: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = dialClientWithRetry(ctx, flnet.ClientConfig{
				Addr:         addr,
				ClientID:     id,
				Data:         env.Participants[id],
				Trainer:      m.Trainer,
				Personalizer: m.Personalizer,
				Seed:         seed,
				IOTimeout:    30 * time.Second,
				// Hold round 1 open long enough for the scraper below to see
				// round 0 counted, however fast two smoke rounds are.
				SimLatency: func(round int) time.Duration { return time.Duration(round) * 100 * time.Millisecond },
			})
		}(i)
	}

	// Scrape the live -metrics-addr endpoint for the whole run: /metrics
	// must be curl-able while the federation executes, and the round
	// counter must tick once round 0 closes. The run spans two rounds so
	// the scraper has the entire second round — not just the teardown
	// window — to observe a non-zero counter.
	maddr := freePort(t)
	runDone := make(chan struct{})
	var scrapes, maxRounds int64
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-runDone:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := client.Get("http://" + maddr + "/metrics")
			if err != nil {
				continue
			}
			var snap obs.Snapshot
			decErr := json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if decErr != nil {
				continue
			}
			scrapes++
			if n := snap.Counters[obs.CounterRounds]; n > maxRounds {
				maxRounds = n
			}
		}
	}()

	out := captureStdout(t, func() error {
		return run([]string{
			"serve", "-addr", addr, "-clients", "2", "-rounds", "2", "-per-round", "2",
			"-method", "fedavg-ft", "-setting", setting, "-scale", "smoke", "-seed", "7",
			"-metrics-addr", maddr,
		})
	})
	close(runDone)
	scraperWG.Wait()
	wg.Wait()
	for id, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	for _, needle := range []string{"round 0:", "personalized accuracy", "summary:", "metrics: listening on"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("server output missing %q:\n%s", needle, out)
		}
	}
	if scrapes == 0 {
		t.Fatal("metrics endpoint was never scrapeable during the run")
	}
	if maxRounds < 1 {
		t.Fatalf("scraper saw rounds_total max %d, want >= 1", maxRounds)
	}
}

// TestServerCheckpointResumeFederation runs a federation with
// -checkpoint-dir, then a second server with -resume and a higher round
// budget: it must pick up the snapshot and continue instead of starting
// over.
func TestServerCheckpointResumeFederation(t *testing.T) {
	const (
		setting = "cifar10-q(2,500)"
		seed    = 7
		n       = 2
	)
	ckptDir := t.TempDir()
	s, ok := experiments.Settings()[setting]
	if !ok {
		t.Fatalf("setting %q missing", setting)
	}
	env, err := experiments.BuildEnvironment(s, experiments.ScaleSmoke, seed)
	if err != nil {
		t.Fatalf("BuildEnvironment: %v", err)
	}
	m, err := experiments.BuildMethod(env, "fedavg-ft")
	if err != nil {
		t.Fatalf("BuildMethod: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	phase := func(rounds string, resume bool) string {
		addr := freePort(t)
		var wg sync.WaitGroup
		clientErrs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				clientErrs[id] = dialClientWithRetry(ctx, flnet.ClientConfig{
					Addr:         addr,
					ClientID:     id,
					Data:         env.Participants[id],
					Trainer:      m.Trainer,
					Personalizer: m.Personalizer,
					Seed:         seed,
					IOTimeout:    30 * time.Second,
				})
			}(i)
		}
		args := []string{
			"serve", "-addr", addr, "-clients", "2", "-rounds", rounds, "-per-round", "2",
			"-method", "fedavg-ft", "-setting", setting, "-scale", "smoke", "-seed", "7",
			"-checkpoint-dir", ckptDir,
		}
		if resume {
			args = append(args, "-resume")
		}
		out := captureStdout(t, func() error { return run(args) })
		wg.Wait()
		for id, cerr := range clientErrs {
			if cerr != nil {
				t.Fatalf("client %d: %v", id, cerr)
			}
		}
		return out
	}

	out := phase("1", false)
	if !strings.Contains(out, "checkpoint v1 saved at round 1") {
		t.Fatalf("phase 1 did not checkpoint:\n%s", out)
	}
	out = phase("2", true)
	if !strings.Contains(out, "resuming from checkpoint v1 (round 1/2)") {
		t.Fatalf("phase 2 did not resume:\n%s", out)
	}
	if strings.Contains(out, "round 0:") {
		t.Fatalf("resumed run re-ran round 0:\n%s", out)
	}
	for _, needle := range []string{"round 1:", "personalized accuracy", "summary:"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("resumed output missing %q:\n%s", needle, out)
		}
	}
	// A budget below the checkpoint's round is refused before listening.
	err = run([]string{"serve", "-addr", "127.0.0.1:0", "-clients", "2", "-rounds", "1", "-per-round", "2",
		"-method", "fedavg-ft", "-setting", setting, "-scale", "smoke", "-seed", "7",
		"-checkpoint-dir", ckptDir, "-resume"})
	if err == nil || !strings.Contains(err.Error(), "round budget") {
		t.Fatalf("resume beyond the round budget: %v", err)
	}
}

func TestServerRejectsBadFlags(t *testing.T) {
	if err := run([]string{"serve", "-setting", "nope"}); err == nil {
		t.Fatal("unknown setting accepted")
	}
	if err := run([]string{"serve", "-resume"}); err == nil {
		t.Fatal("-resume without -checkpoint-dir accepted")
	}
	if err := run([]string{"serve", "-method", "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := run([]string{"serve", "-straggler", "nope"}); err == nil {
		t.Fatal("unknown straggler policy accepted")
	}
	if err := run([]string{"serve", "-per-round", "2", "-quorum", "3", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("quorum above per-round accepted")
	}
	if err := run([]string{"serve", "-deadline", "-1s", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("negative deadline accepted")
	}
}
