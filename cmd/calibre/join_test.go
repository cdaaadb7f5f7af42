package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/flnet"
)

// TestClientSmokeFederation drives the real `calibre join` entry
// point against an in-process flnet server sharing the same deterministic
// experiment world.
func TestClientSmokeFederation(t *testing.T) {
	const (
		setting = "cifar10-q(2,500)"
		seed    = 7
	)
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
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 1, ClientsPerRound: 1, Seed: seed,
		Aggregator: m.Aggregator,
		InitGlobal: m.InitGlobal,
		IOTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type result struct {
		res *flnet.Result
		err error
	}
	srvCh := make(chan result, 1)
	go func() {
		res, err := srv.Run(ctx)
		srvCh <- result{res, err}
	}()

	out := captureStdout(t, func() error {
		return run([]string{
			"join", "-addr", srv.Addr().String(), "-id", "0",
			"-method", "fedavg-ft", "-setting", setting, "-scale", "smoke", "-seed", "7",
		})
	})
	sr := <-srvCh
	if sr.err != nil {
		t.Fatalf("server: %v", sr.err)
	}
	if len(sr.res.Accuracies) != 1 {
		t.Fatalf("accuracies = %v, want one entry", sr.res.Accuracies)
	}
	for _, needle := range []string{"client 0 joining", "client 0 finished cleanly"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("client output missing %q:\n%s", needle, out)
		}
	}
}

func TestClientRejectsBadFlags(t *testing.T) {
	if err := run([]string{"join", "-setting", "nope"}); err == nil {
		t.Fatal("unknown setting accepted")
	}
	if err := run([]string{"join", "-id", "-1"}); err == nil {
		t.Fatal("out-of-range client id accepted")
	}
	if err := run([]string{"join", "-method", "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if err := run([]string{"join", "-sim-latency", "nope"}); err == nil {
		t.Fatal("malformed sim-latency accepted")
	}
}
