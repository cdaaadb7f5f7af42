package flnet

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// TestEvictionReleasesEngineState drives both ways the round engine
// evicts a healthy client under StragglerDrop — the availability trace
// dropping it pre-dispatch, and the round deadline expiring on it — and
// checks each releases the client's roster entry and busy entry together.
// The federation runs over real TCP with real RunClient goroutines.
func TestEvictionReleasesEngineState(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		cfg     ServerConfig
		latency func(id, round int) time.Duration
	}{
		{
			name: "trace", n: 8,
			cfg: ServerConfig{Rounds: 3, Quorum: 1, Straggler: fl.StragglerDrop,
				Trace: &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.25, Amp: 0.1, Period: 4}},
		},
		{
			name: "deadline", n: 3,
			cfg: ServerConfig{Rounds: 3, Quorum: 2, Straggler: fl.StragglerDrop,
				RoundDeadline: 300 * time.Millisecond},
			latency: func(id, round int) time.Duration {
				if id == 2 && round >= 1 {
					return 2 * time.Second
				}
				return 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clients := netClients(t, tc.n)
			cfg := tc.cfg
			cfg.Addr, cfg.NumClients, cfg.ClientsPerRound, cfg.Seed = "127.0.0.1:0", tc.n, tc.n, 7
			cfg.Aggregator = fl.WeightedAverage{}
			cfg.IOTimeout = 20 * time.Second
			cfg.InitGlobal = func(rng *rand.Rand) (param.Vector, error) {
				v := make(param.Vector, 64)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v, nil
			}
			responded := map[int]bool{} // clients that shipped at least one update
			cfg.OnRound = func(h fl.RoundStats) {
				ids := h.Responders
				if ids == nil {
					ids = h.Participants
				}
				for _, id := range ids {
					responded[id] = true
				}
			}
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < tc.n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					ccfg := ClientConfig{Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
						Trainer: driftTrainer{}, Personalizer: idPersonalizer{}, Seed: 7, IOTimeout: 20 * time.Second}
					if tc.latency != nil {
						ccfg.SimLatency = func(round int) time.Duration { return tc.latency(id, round) }
					}
					// Evicted clients see their connection fail, and the
					// survivors' are closed under them below; neither matters.
					_ = RunClient(ctx, ccfg)
				}(i)
			}
			// Server.Run's training stage, with the engine kept in hand.
			go srv.acceptLoop()
			if err := srv.awaitQuorumJoin(ctx); err != nil {
				t.Fatal(err)
			}
			eng := newRoundEngine(srv)
			_, _, err = fl.RunRounds(ctx, srv.cfg.round(), eng)
			roster := map[int]bool{}
			for _, id := range srv.Joined() {
				roster[id] = true
			}
			srv.listener.Close()
			srv.closeAll()
			close(srv.done)
			wg.Wait()
			if err != nil {
				t.Fatalf("RunRounds: %v", err)
			}

			evictedAfterUpdate := 0
			for id := 0; id < tc.n; id++ {
				if roster[id] {
					continue
				}
				if responded[id] {
					evictedAfterUpdate++
				}
				if _, ok := eng.busy[id]; ok {
					t.Errorf("evicted client %d is still marked busy", id)
				}
			}
			if evictedAfterUpdate == 0 {
				t.Fatalf("no client was evicted after shipping an update (roster %v, responded %v): the test is vacuous, adjust the scenario", roster, responded)
			}
		})
	}
}
