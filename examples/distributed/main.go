// Distributed: run a real networked federation — a TCP server and several
// client processes exchanging model vectors — inside one program (each
// client on its own goroutine, exactly the code path `calibre serve` and
// `calibre join` use across machines), then kill the server
// mid-federation and resume it from its durable checkpoints.
//
// Phase 1 runs asynchronously (rounds close on a 3-of-4 quorum with a
// per-round deadline, one deliberately slow client shows up as a
// straggler) while every completed round is snapshotted into a checkpoint
// directory. After round 1 the server process is killed: its context is
// canceled, every connection drops and the clients fail out — the crash.
//
// Phase 2 is the operator's restart: a fresh server loads the latest
// snapshot (calibre.AttachCheckpoints with Resume set), the clients
// redial, and the federation continues from round 2 through
// personalization as if nothing had happened. With all participants
// responding, the resumed run is bit-identical to an uninterrupted one.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"calibre"
)

const (
	numClients = 4
	rounds     = 4
	seed       = 3
	deadline   = 10 * time.Second
)

// runPhase starts a server over world (continuing from the latest snapshot
// in dir when resume is set) plus one goroutine per client, and returns the
// server outcome. kill, when non-nil, is invoked at the round boundary
// named by killAfter — the simulated crash.
func runPhase(ctx context.Context, world *calibre.World, dir string, resume bool,
	killAfter int, kill context.CancelFunc, metrics *calibre.MetricsRegistry) (*calibre.FederationResult, error) {

	// Durability: every completed round is handed to the checkpoint store
	// before OnRound fires and written (atomic versioned snapshot files)
	// behind the next round; Run — killed or finished — returns only once
	// the last accepted round is on disk, which is what phase 2 resumes
	// from. The fingerprint binds the snapshots to this configuration.
	ckpt, err := calibre.AttachCheckpoints(world.Method, calibre.Checkpoints{
		Dir: dir, Every: 1, Resume: resume,
		Seed: seed, Fingerprint: world.ServerFingerprint(numClients, numClients, deadline), Runtime: "server",
		OnSaved: func(v int, state *calibre.SimState) {
			fmt.Printf("  [checkpoint v%d saved at round %d]\n", v, state.Round)
		},
	})
	if err != nil {
		return nil, err
	}
	if resume {
		if ckpt.ResumeFrom == nil {
			return nil, errors.New("phase 1 left no checkpoint to resume from")
		}
		fmt.Printf("resuming from checkpoint v%d (round %d/%d)\n", ckpt.Version, ckpt.ResumeFrom.Round, rounds)
	}
	srv, err := calibre.NewServer(calibre.ServerConfig{
		Addr:            "127.0.0.1:0",
		NumClients:      numClients,
		Rounds:          rounds,
		ClientsPerRound: numClients,
		Seed:            seed,
		// Observability: both phases feed one metrics registry, so the
		// totals printed at the end span the crash. A registry never
		// perturbs results — instrumented runs stay bit-identical.
		Obs:        metrics,
		Aggregator: world.Method.Aggregator,
		InitGlobal: world.Method.InitGlobal,
		IOTimeout:  2 * time.Minute,
		// Asynchronous rounds: close on a 3-of-4 quorum once the deadline
		// passes; deadline-missers are requeued for later rounds.
		Quorum:          world.Scenario.Quorum,
		RoundDeadline:   deadline,
		Straggler:       world.Straggler,
		CheckpointEvery: ckpt.Every,
		OnCheckpoint:    ckpt.OnCheckpoint,
		ResumeFrom:      ckpt.ResumeFrom,
		OnRound: func(stats calibre.RoundStats) {
			fmt.Println(stats)
			if kill != nil && stats.Round == killAfter {
				fmt.Println("  [killing the server process here]")
				kill()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	fmt.Println("server listening on", srv.Addr())

	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The last client simulates a slow device in round 0: it
			// sleeps through the deadline, misses the quorum cut, and is
			// requeued — watch the round log for its late update.
			var latency func(round int) time.Duration
			if id == numClients-1 && !resume {
				latency = func(round int) time.Duration {
					if round == 0 {
						return 25 * time.Second
					}
					return 0
				}
			}
			err := calibre.RunClient(ctx, calibre.ClientConfig{
				Addr:         srv.Addr().String(),
				ClientID:     id,
				Data:         world.Env.Participants[id],
				Trainer:      world.Method.Trainer,
				Personalizer: world.Method.Personalizer,
				Seed:         seed,
				IOTimeout:    2 * time.Minute,
				SimLatency:   latency,
			})
			if err != nil {
				log.Printf("client %d: %v (expected when the server is killed)", id, err)
			}
		}(id)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	return res, err
}

func main() {
	// One scenario value describes the federation; Build turns it into the
	// world, the method and the parsed knobs — the same assembly `calibre
	// serve`, `calibre join` and every sweep cell go through.
	world, err := calibre.Scenario{
		Method: "calibre-simclr", Setting: "cifar10-q(2,500)", Scale: calibre.ScaleSmoke, Seed: seed,
		Quorum: numClients - 1, Straggler: "requeue",
	}.Build()
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "calibre-distributed-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	metrics := calibre.NewMetricsRegistry()

	fmt.Printf("=== phase 1: async federation with checkpoints (killed after round 1) ===\n")
	phase1, cancel1 := context.WithTimeout(context.Background(), 5*time.Minute)
	_, err = runPhase(phase1, world, dir, false, 1, cancel1, metrics)
	cancel1()
	if err == nil {
		log.Fatal("phase 1 was supposed to die mid-federation")
	}
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("phase 1 failed for the wrong reason: %v", err)
	}
	fmt.Printf("server died as scripted: %v\n\n", err)

	fmt.Printf("=== phase 2: restart, resume from the latest snapshot ===\n")
	phase2, cancel2 := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel2()
	res, err := runPhase(phase2, world, dir, true, -1, nil, metrics)
	if err != nil {
		log.Fatal(err)
	}

	ids := make([]int, 0, len(res.Accuracies))
	accs := make([]float64, 0, len(res.Accuracies))
	for id := range res.Accuracies {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("client %d personalized accuracy: %.4f\n", id, res.Accuracies[id])
		accs = append(accs, res.Accuracies[id])
	}
	fmt.Println("federation summary:", calibre.Summarize(accs))

	// What the metrics plane saw across both phases: every completed
	// round and the uplink traffic it cost. With -metrics-addr /
	// calibre.ServeMetrics the same numbers are scrapeable live at /metrics
	// and /metrics/prom.
	ms := metrics.Snapshot()
	fmt.Printf("metrics: %d rounds observed, uplink %d B\n",
		ms.Counters[calibre.MetricRounds],
		ms.Counters[calibre.MetricUplinkWireBytes])
}
