// Command calibre-server runs the federated server side of a real
// networked federation (TCP + gob). Clients connect with calibre-client.
//
// Server and clients derive the same deterministic experiment world from
// (-setting, -scale, -seed), mirroring how each real deployment site would
// hold its own shard; the server itself never touches client data.
//
// Example (one server, three clients):
//
//	calibre-server -addr :9100 -clients 3 -rounds 5 -per-round 2 -method calibre-simclr
//	calibre-client -addr 127.0.0.1:9100 -id 0 -method calibre-simclr
//	calibre-client -addr 127.0.0.1:9100 -id 1 -method calibre-simclr
//	calibre-client -addr 127.0.0.1:9100 -id 2 -method calibre-simclr
//
// With -checkpoint-dir the server snapshots its round state durably
// (atomic versioned files, see internal/store) and a killed server can be
// restarted with -resume to continue the federation from the latest
// snapshot once its clients redial — bit-identically, when every
// participant responds. Methods that keep cross-round client state beyond
// the global vector (fedema, fedper/fedrep/fedbabu/lg-fedavg, scaffold,
// apfl, ditto, and the byol/mocov2 SSL flavors) cannot be resumed and
// -resume refuses them. Inspect snapshots with calibre-ckpt.
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
	"time"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/store"
	"calibre/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calibre-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("calibre-server", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":9100", "listen address")
		clients    = fs.Int("clients", 3, "number of clients that must join before training (late joiners admitted afterwards)")
		rounds     = fs.Int("rounds", 5, "federated rounds")
		perRound   = fs.Int("per-round", 2, "clients sampled per round")
		method     = fs.String("method", "calibre-simclr", "method name (see calibre-bench -list)")
		setting    = fs.String("setting", "cifar10-q(2,500)", "experiment setting")
		scale      = fs.String("scale", "smoke", "scale preset: smoke | ci | paper")
		seed       = fs.Int64("seed", 42, "master seed (must match clients)")
		quorum     = fs.Int("quorum", 0, "min updates to close a round at the deadline (K of N); 0 waits for all")
		deadline   = fs.Duration("deadline", 0, "per-round collection deadline; 0 waits for all participants")
		straggler  = fs.String("straggler", "requeue", "straggler policy at the deadline: requeue | drop")
		ckptDir    = fs.String("checkpoint-dir", "", "durable checkpoint directory; snapshots round state for crash recovery")
		ckptEvery  = fs.Int("checkpoint-every", 1, "rounds between checkpoints when -checkpoint-dir is set")
		ckptDelta  = fs.Bool("checkpoint-incremental", false, "encode checkpoints as lossless deltas against the previous version (full-snapshot fallback; see calibre-ckpt list)")
		resume     = fs.Bool("resume", false, "resume from the latest matching checkpoint in -checkpoint-dir (fresh start when none exists)")
		aggSpec    = fs.String("aggregator", "", "robust aggregator override: mean | median | trimmed(frac) | krum(f); empty keeps the method's own")
		traceSpec  = fs.String("trace", "", "seeded availability trace, e.g. diurnal(0.1,0.6,8) | flash(0,0.8,2,2) | markov(0,0.3,0.5); empty means always available")
		metrics    = fs.String("metrics-addr", "", "serve live metrics on this host:port (/metrics JSON, /metrics/prom text); port 0 picks a free one")
		healthSpec = fs.String("health", "", `streaming anomaly detection rules: "default", "all", or a spec like "non-finite,norm-z(3.5,2)" (see internal/health); alerts print live and /healthz serves the diagnosis on -metrics-addr; empty disables`)
		traceOut   = fs.String("trace-out", "", "append flight-recorder events (length-prefixed JSONL) to this file; inspect with calibre-trace")
		traceRot   = fs.Int64("trace-rotate-bytes", 0, "rotate the -trace-out file when it would exceed this size (keeps 3 generations); 0 disables rotation")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this host:port; port 0 picks a free one")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	policy, err := fl.ParseStragglerPolicy(*straggler)
	if err != nil {
		return err
	}
	s, ok := experiments.Settings()[*setting]
	if !ok {
		return fmt.Errorf("unknown setting %q", *setting)
	}
	env, err := experiments.BuildEnvironment(s, experiments.Scale(*scale), *seed)
	if err != nil {
		return err
	}
	m, err := experiments.BuildMethod(env, *method)
	if err != nil {
		return err
	}
	if *aggSpec != "" && *aggSpec != "mean" {
		agg, err := fl.ParseAggregator(*aggSpec)
		if err != nil {
			return err
		}
		m.Aggregator = agg
	}
	avail, err := fl.ParseTrace(*traceSpec)
	if err != nil {
		return err
	}
	var mon *health.Monitor
	if *healthSpec != "" {
		hc, err := health.ParseRules(*healthSpec)
		if err != nil {
			return err
		}
		mon = health.NewMonitor(&hc)
	}
	cfg := flnet.ServerConfig{
		Addr:            *addr,
		NumClients:      *clients,
		Rounds:          *rounds,
		ClientsPerRound: *perRound,
		Seed:            *seed,
		Aggregator:      m.Aggregator,
		InitGlobal:      m.InitGlobal,
		Quorum:          *quorum,
		RoundDeadline:   *deadline,
		Straggler:       policy,
		Trace:           avail,
		OnRound: func(stats fl.RoundStats) {
			fmt.Println(stats)
		},
	}
	if mon != nil {
		cfg.Health = mon
		cfg.OnAlert = func(a health.Alert) { fmt.Println(a) }
	}
	if *ckptDir != "" {
		// Client-side trainer state is invisible to flnet's own validation,
		// so the statefulness check happens here, where the full method is
		// in hand: resuming a stateful method would silently diverge.
		if !fl.Resumable(m) {
			if *resume {
				return fmt.Errorf("method %s: %w", *method, fl.ErrStatefulResume)
			}
			fmt.Printf("warning: method %s carries cross-round state; snapshots stay inspectable (calibre-ckpt) but -resume will be refused\n", *method)
		}
		ckpt, err := store.Open(*ckptDir)
		if err != nil {
			return err
		}
		// Incremental encoding changes only how snapshots are stored, never
		// what they resolve to, so it is safe to flip between restarts.
		ckpt.SetIncremental(*ckptDelta)
		// The fingerprint binds snapshots to the run-defining knobs (round
		// budget excluded: -resume legitimately extends it), so -resume can
		// never silently continue a differently-configured federation.
		fp := store.Fingerprint("server", *method, *setting, *scale,
			fmt.Sprint(*seed), fmt.Sprint(*clients), fmt.Sprint(*perRound),
			fmt.Sprint(*quorum), deadline.String(), policy.String(),
			fmt.Sprint(m.Aggregator), avail.String())
		cfg.CheckpointEvery = *ckptEvery
		cfg.OnCheckpoint = ckpt.SaveHook(
			store.Meta{Seed: *seed, Fingerprint: fp, Runtime: "server"},
			func(v int, state *fl.SimState) {
				fmt.Printf("checkpoint v%d saved at round %d\n", v, state.Round)
			})
		if *resume {
			snap, v, err := ckpt.Resume(fp)
			if err != nil {
				return err
			}
			if snap == nil {
				fmt.Printf("no checkpoint in %s; starting fresh\n", *ckptDir)
			} else {
				cfg.ResumeFrom = &snap.State
				fmt.Printf("resuming from checkpoint v%d (round %d/%d)\n", v, snap.State.Round, *rounds)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *traceOut != "" {
		sink, err := trace.OpenFile(*traceOut, trace.FileOptions{RotateBytes: *traceRot})
		if err != nil {
			return err
		}
		rec := trace.New(sink, trace.Config{})
		cfg.Recorder = rec
		// Close flushes the ring; a sink error (full disk, rotation
		// failure) is sticky and surfaces here without having failed the
		// federation itself.
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		}()
		fmt.Printf("trace: recording to %s\n", *traceOut)
	}
	if *pprofAddr != "" {
		psrv, paddr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Printf("pprof: listening on http://%s/debug/pprof/\n", paddr)
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = psrv.Shutdown(shCtx)
		}()
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		cfg.Obs = reg
		// The health handler wraps the metrics handler: /healthz and
		// /healthz/prom answer from the monitor (404 without -health),
		// everything else falls through to /metrics.
		msrv, maddr, err := obs.ServeHandler(*metrics, health.Handler(mon, obs.Handler(reg)))
		if err != nil {
			return err
		}
		fmt.Printf("metrics: listening on http://%s/metrics\n", maddr)
		if mon != nil {
			fmt.Printf("health: diagnosis on http://%s/healthz\n", maddr)
		}
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = msrv.Shutdown(shCtx)
		}()
	}
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s; waiting for %d clients (method %s, setting %s)\n",
		srv.Addr(), *clients, *method, *setting)
	res, err := srv.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// Checkpoints for completed rounds are already flushed (Run
			// waits for the write-behind save before it returns); stop()
			// restores default signal handling so a second ^C force-kills.
			stop()
			if *ckptDir != "" {
				fmt.Fprintf(os.Stderr, "interrupted; completed rounds are checkpointed — restart with `calibre-server -resume -checkpoint-dir %s ...` to continue\n", *ckptDir)
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
