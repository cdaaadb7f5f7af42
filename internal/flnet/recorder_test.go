package flnet

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/trace"
)

// runTracedFederation is runFederation with a configurable ServerConfig
// mutator, so recorder tests can attach a trace sink and hostile knobs.
func runTracedFederation(t *testing.T, n, rounds, perRound int, mutate func(*ServerConfig)) *Result {
	t.Helper()
	clients := netClients(t, n)
	cfg := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: perRound, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		IOTimeout:  20 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr:         srv.Addr().String(),
				ClientID:     id,
				Data:         clients[id],
				Trainer:      addOneTrainer{},
				Personalizer: idPersonalizer{},
				Seed:         7,
				IOTimeout:    20 * time.Second,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	return res
}

// TestTraceDoesNotPerturbNetRun is the networked half of the flight
// recorder's bit-identity contract: a TCP federation with a live recorder
// attached produces exactly the same global model, history and
// personalized accuracies as a bare one, and the trace describes the run.
func TestTraceDoesNotPerturbNetRun(t *testing.T) {
	bare := runTracedFederation(t, 4, 3, 2, nil)

	var sink bytes.Buffer
	rec := trace.New(&sink, trace.Config{})
	traced := runTracedFederation(t, 4, 3, 2, func(c *ServerConfig) { c.Recorder = rec })
	if err := rec.Close(); err != nil {
		t.Fatalf("close recorder: %v", err)
	}

	if !reflect.DeepEqual(bare.Global, traced.Global) {
		t.Errorf("global drifted under tracing:\nbare:   %v\ntraced: %v", bare.Global, traced.Global)
	}
	if !reflect.DeepEqual(bare.History, traced.History) {
		t.Errorf("history drifted under tracing:\nbare:   %+v\ntraced: %+v", bare.History, traced.History)
	}
	if !reflect.DeepEqual(bare.Accuracies, traced.Accuracies) {
		t.Errorf("accuracies drifted under tracing:\nbare: %v\ntraced: %v", bare.Accuracies, traced.Accuracies)
	}

	events, err := trace.ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	counts := map[trace.Kind]int{}
	lastStart := int64(-1)
	for _, e := range events {
		counts[e.Kind]++
		if e.Runtime != "server" {
			t.Fatalf("event with wrong runtime: %+v", e)
		}
		switch e.Kind {
		case trace.KindRoundStart:
			if e.TS < lastStart {
				t.Errorf("round spans out of order: %+v", e)
			}
			lastStart = e.TS
		case trace.KindClientUpdate:
			if e.Client < 0 || e.Bytes <= 0 || e.Dur <= 0 || e.Wire != "dense" {
				t.Errorf("implausible client_update: %+v", e)
			}
		}
	}
	if counts[trace.KindRoundStart] != 3 || counts[trace.KindRoundEnd] != 3 {
		t.Errorf("round spans = %d/%d, want 3/3", counts[trace.KindRoundStart], counts[trace.KindRoundEnd])
	}
	// 3 rounds × 2 participants, no failures: every dispatch has an update.
	if counts[trace.KindClientDispatch] != 6 || counts[trace.KindClientUpdate] != 6 {
		t.Errorf("client spans = %d dispatch / %d update, want 6/6",
			counts[trace.KindClientDispatch], counts[trace.KindClientUpdate])
	}
	if counts[trace.KindClientDrop] != 0 {
		t.Errorf("healthy federation traced %d drops", counts[trace.KindClientDrop])
	}
}

// TestNetTraceAvailabilityDrops pins drop attribution over TCP: a seeded
// availability trace produces client_drop events with reason=trace.
func TestNetTraceAvailabilityDrops(t *testing.T) {
	var sink bytes.Buffer
	rec := trace.New(&sink, trace.Config{})
	runTracedFederation(t, 4, 4, 3, func(c *ServerConfig) {
		c.Recorder = rec
		c.Trace = &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.4, Amp: 0.3, Period: 4}
		c.Quorum = 1
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, e := range events {
		if e.Kind == trace.KindClientDrop {
			drops++
			if e.Reason != trace.DropTrace {
				t.Fatalf("availability drop misattributed: %+v", e)
			}
			if e.Client < 0 {
				t.Fatalf("drop without client id: %+v", e)
			}
		}
	}
	if drops == 0 {
		t.Fatal("diurnal trace at base 0.4 produced no drops over 4 rounds (seed-dependent; adjust)")
	}
}
