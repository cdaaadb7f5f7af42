package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/health"
)

// runServe runs the server side of a real networked federation (TCP,
// fixed-header messages and raw vector frames); clients connect with
// `calibre join`.
//
// Server and clients derive the same deterministic experiment world from
// (-setting, -scale, -seed), mirroring how each real deployment site would
// hold its own shard; the server itself never touches client data.
//
// Example (one server, three clients):
//
//	calibre serve -addr :9100 -clients 3 -rounds 5 -per-round 2 -method calibre-simclr
//	calibre join -addr 127.0.0.1:9100 -id 0 -method calibre-simclr
//	calibre join -addr 127.0.0.1:9100 -id 1 -method calibre-simclr
//	calibre join -addr 127.0.0.1:9100 -id 2 -method calibre-simclr
//
// With -checkpoint-dir the server snapshots its round state durably
// (atomic versioned files, see internal/store) and a killed server can be
// restarted with -resume to continue the federation from the latest
// snapshot once its clients redial — bit-identically, when every
// participant responds. -resume refuses a method with a client table
// (fl.Method.Clients) — its rows live in the `calibre join` processes, not
// in the server's snapshots — and SCAFFOLD, whose server control variate a
// snapshot does not hold (fl.ErrStatefulResume). Inspect snapshots with
// `calibre ckpt`.
func runServe(args []string) error {
	fs := newFlagSet("serve")
	var sc experiments.Scenario
	serveScenarioFlags(fs, &sc)
	var (
		addr      = fs.String("addr", ":9100", "listen address")
		clients   = fs.Int("clients", 3, "number of clients that must join before training (late joiners admitted afterwards)")
		rounds    = fs.Int("rounds", 5, "federated rounds")
		perRound  = fs.Int("per-round", 2, "clients sampled per round")
		deadline  = fs.Duration("deadline", 0, "per-round collection deadline; 0 waits for all participants")
		ckptDir   = fs.String("checkpoint-dir", "", "durable checkpoint directory; snapshots round state for crash recovery")
		ckptEvery = fs.Int("checkpoint-every", 1, "rounds between checkpoints when -checkpoint-dir is set")
		resume    = fs.Bool("resume", false, "resume from the latest matching checkpoint in -checkpoint-dir (fresh start when none exists)")
		planes    = addPlaneFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	world, err := sc.Build()
	if err != nil {
		return err
	}
	hc, err := planes.healthConfig()
	if err != nil {
		return err
	}
	cfg := flnet.ServerConfig{
		Federation:      world.Federation,
		Addr:            *addr,
		NumClients:      *clients,
		Rounds:          *rounds,
		ClientsPerRound: *perRound,
		Seed:            sc.Seed,
		Aggregator:      world.Method.Aggregator,
		InitGlobal:      world.Method.InitGlobal,
		RoundDeadline:   *deadline,
		OnRound: func(stats fl.RoundStats) {
			fmt.Println(stats)
		},
	}
	var mon *health.Monitor
	if hc != nil {
		mon = health.NewMonitor(hc)
		cfg.Health = mon
		cfg.OnAlert = func(a health.Alert) { fmt.Println(a) }
	}
	if *ckptDir != "" {
		ckpt, err := experiments.AttachCheckpoints(world.Method, experiments.Checkpoints{
			Dir: *ckptDir, Every: *ckptEvery, Resume: *resume,
			Seed: sc.Seed, Fingerprint: world.ServerFingerprint(*clients, *perRound, *deadline), Runtime: "server",
			OnSaved: func(v int, state *fl.SimState) {
				fmt.Printf("checkpoint v%d saved at round %d\n", v, state.Round)
			},
		}, &cfg.Federation)
		if err != nil {
			return err
		}
		switch {
		case ckpt.Stateful:
			fmt.Printf("warning: method %s carries cross-round state; snapshots stay inspectable (calibre ckpt) but -resume will be refused\n", sc.Method)
		case cfg.ResumeFrom != nil:
			fmt.Printf("resuming from checkpoint v%d (round %d/%d)\n", ckpt.Version, cfg.ResumeFrom.Round, *rounds)
		case *resume:
			fmt.Printf("no checkpoint in %s; starting fresh\n", *ckptDir)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg, rec, detach, err := planes.attach(mon)
	if err != nil {
		return err
	}
	defer detach()
	cfg.Obs, cfg.Recorder = reg, rec
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s; waiting for %d clients (method %s, setting %s)\n",
		srv.Addr(), *clients, sc.Method, sc.Setting)
	res, err := srv.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// Checkpoints for completed rounds are already flushed (Run
			// waits for the write-behind save before it returns); stop()
			// restores default signal handling so a second ^C force-kills.
			stop()
			if *ckptDir != "" {
				fmt.Fprintf(os.Stderr, "interrupted; completed rounds are checkpointed — restart with `calibre serve -resume -checkpoint-dir %s ...` to continue\n", *ckptDir)
			} else {
				fmt.Fprintln(os.Stderr, "interrupted; run with -checkpoint-dir to make the federation resumable")
			}
		}
		return err
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
	fmt.Println("summary:", eval.Summarize(accs))
	return nil
}

// serveScenarioFlags binds the scenario a server runs to its flags: the
// world flags plus the federation knobs, under the names a sweep grid gives
// the same axes.
func serveScenarioFlags(fs *flag.FlagSet, sc *experiments.Scenario) {
	methodFlag(fs, sc)
	settingFlag(fs, sc)
	scaleSeedFlags(fs, sc)
	fs.IntVar(&sc.Quorum, "quorum", 0, "min updates to close a round at the deadline (K of N); 0 waits for all")
	fs.StringVar(&sc.Straggler, "straggler", "requeue", "straggler policy at the deadline: requeue | drop")
	fs.StringVar(&sc.Aggregator, "aggregator", "", "robust aggregator override: mean | median | trimmed(frac) | krum(f); empty keeps the method's own")
	fs.StringVar(&sc.Availability, "availability", "", "seeded availability trace, e.g. diurnal(0.1,0.6,8) | flash(0,0.8,2,2) | markov(0,0.3,0.5); empty means always available")
}
