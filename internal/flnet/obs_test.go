package flnet

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/obs"
	"calibre/internal/param"
)

// TestObsSnapshotRaceDuringFederation hammers Registry.Snapshot from
// scraper goroutines while a real TCP federation runs concurrent rounds
// — the race-freedom half of the metrics-plane contract, meaningful
// under `go test -race`. The scrapers also sanity-check every snapshot
// they take: the metrics plane must never expose a half-recorded round.
func TestObsSnapshotRaceDuringFederation(t *testing.T) {
	reg := obs.NewRegistry()
	const n, rounds, perRound = 4, 4, 3

	clients := netClients(t, n)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: perRound, Seed: 7,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		IOTimeout:  20 * time.Second,
		Obs:        reg,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Scrapers: poll Snapshot as fast as they can for the whole federation.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for w := 0; w < 2; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				if int64(len(snap.Rounds)) > snap.Counters[obs.CounterRounds] {
					t.Errorf("torn snapshot: ring %d > rounds_total %d", len(snap.Rounds), snap.Counters[obs.CounterRounds])
					return
				}
				for _, rs := range snap.Rounds {
					if rs.Runtime != "server" || rs.Responders > rs.Participants {
						t.Errorf("implausible round sample: %+v", rs)
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr:     srv.Addr().String(),
				ClientID: id, Data: clients[id],
				Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
				Seed: 7, IOTimeout: 20 * time.Second,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}

	// The federation completed; the registry must agree with its history.
	snap := reg.Snapshot()
	if got := snap.Counters[obs.CounterRounds]; got != rounds {
		t.Fatalf("rounds_total = %d, want %d", got, rounds)
	}
	if len(res.History) != rounds {
		t.Fatalf("history has %d rounds, want %d", len(res.History), rounds)
	}
	if wire, want := snap.Counters[obs.CounterUplinkWireBytes], int64(8*len(res.Global)*rounds*perRound); wire != want {
		t.Fatalf("uplink accounting wrong: %d bytes, want %d (8 per parameter per update)", wire, want)
	}
	// Every round sampled perRound clients and all responded.
	var part int64
	for _, v := range snap.Participation {
		part += v
	}
	if part != rounds*perRound {
		t.Fatalf("participation sums to %d client-rounds, want %d", part, rounds*perRound)
	}
}
