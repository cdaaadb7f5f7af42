package flnet

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
)

// TestServerHealthSuspectsOverTCP is the health plane's network
// integration gate: a real TCP federation with two sign-flipping clients,
// watched by a live health.Monitor on the server, must flag exactly the
// seeded compromised set from ingress update norms — across goroutine
// scheduling, wire encoding and arrival-order noise — while perturbing
// nothing (the global matches a monitor-free run bit for bit).
func TestServerHealthSuspectsOverTCP(t *testing.T) {
	const n, rounds, seed = 6, 4, 7
	adv := &fl.Adversary{Kind: fl.AdvSignFlip, Scale: 6, Frac: 0.34}

	run := func(mon *health.Monitor, onAlert func(health.Alert)) (*Result, obs.Snapshot) {
		t.Helper()
		clients := netClients(t, n)
		reg := obs.NewRegistry()
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: n, Seed: seed,
			Aggregator: fl.WeightedAverage{},
			InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
			Adversary:  adv,
			Obs:        reg,
			Health:     mon,
			OnAlert:    onAlert,
			IOTimeout:  20 * time.Second,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()

		trainer := adv.WrapTrainer(clusteredTrainer{}, seed, n)
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				errs[id] = RunClient(ctx, ClientConfig{
					Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
					Trainer: trainer, Personalizer: idPersonalizer{},
					Seed: seed, IOTimeout: 20 * time.Second,
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
		return res, reg.Snapshot()
	}

	bare, _ := run(nil, nil)

	mon := health.NewMonitor(nil)
	var alerts []health.Alert
	res, snap := run(mon, func(a health.Alert) { alerts = append(alerts, a) })

	if !reflect.DeepEqual(bare.Global, res.Global) {
		t.Errorf("global drifted under health monitoring:\nwithout: %v\nwith:    %v", bare.Global, res.Global)
	}
	if !reflect.DeepEqual(bare.History, res.History) {
		t.Errorf("history drifted under health monitoring")
	}

	want := adv.Malicious(seed, n)
	diag := mon.Diagnosis()
	if !reflect.DeepEqual(diag.Suspects, want) {
		t.Errorf("suspects = %v, want exactly the compromised set %v", diag.Suspects, want)
	}
	for _, a := range alerts {
		if a.Rule != "norm-z" {
			t.Errorf("unexpected %s alert from a clustered-trainer federation: %v", a.Rule, a)
		}
	}
	if len(diag.Clients) != n {
		t.Errorf("scored %d clients, want %d", len(diag.Clients), n)
	}
	for i := range want {
		if !diag.Clients[i].Suspect {
			t.Errorf("rank %d should be a suspect; ranking = %+v", i, diag.Clients)
		}
	}
	if got := snap.Gauges[obs.GaugeHealthSuspects]; got != int64(len(want)) {
		t.Errorf("health_suspect_clients gauge = %d, want %d", got, len(want))
	}
	if snap.Counters[obs.CounterHealthCritical] != int64(len(want)) {
		t.Errorf("health_critical_alerts_total = %d, want %d", snap.Counters[obs.CounterHealthCritical], len(want))
	}

	// The round ring now carries per-client detail: replaying it through
	// a fresh monitor (the `calibre doctor` live path) reproduces the
	// verdict.
	replay := health.NewMonitor(nil)
	for _, s := range snap.Rounds {
		replay.ObserveRound(s)
	}
	if got := replay.Diagnosis().Suspects; !reflect.DeepEqual(got, want) {
		t.Errorf("ring replay suspects = %v, want %v", got, want)
	}
}
