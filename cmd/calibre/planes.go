package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/trace"
)

// planeFlags are the producer-side observability flags `serve` and `sweep
// run|resume` share: the metrics endpoint, the health detectors, the
// flight recorder and pprof.
type planeFlags struct {
	metricsAddr string
	health      string
	traceOut    string
	pprofAddr   string
}

func addPlaneFlags(fs *flag.FlagSet) *planeFlags {
	p := &planeFlags{}
	fs.StringVar(&p.metricsAddr, "metrics-addr", "", "serve live metrics on this host:port (/metrics JSON, /metrics/prom text); port 0 picks a free one")
	fs.StringVar(&p.health, "health", "", `streaming anomaly detection rules: "default", "all", or a spec like "non-finite,norm-z(3.5,2)" (see internal/health); serve prints alerts live and answers /healthz on -metrics-addr, sweep gives every cell its own monitor and records the verdicts on its manifest row; empty disables`)
	fs.StringVar(&p.traceOut, "trace-out", "", "append flight-recorder events (length-prefixed JSONL) to this file; inspect with calibre trace")
	fs.StringVar(&p.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this host:port; port 0 picks a free one")
	return p
}

// healthConfig parses -health; nil means the flag was not given.
func (p *planeFlags) healthConfig() (*health.Config, error) {
	if p.health == "" {
		return nil, nil
	}
	hc, err := health.ParseRules(p.health)
	if err != nil {
		return nil, err
	}
	return &hc, nil
}

// attach opens what the flags ask for — the flight recorder, pprof, the
// metrics endpoint — and returns the registry and recorder to hand to the
// runtime (each nil when its flag is unset) with the function that tears
// everything down again. mon, when non-nil, answers /healthz and
// /healthz/prom next to /metrics.
func (p *planeFlags) attach(mon *health.Monitor) (reg *obs.Registry, rec *trace.Recorder, detach func(), err error) {
	var undo []func()
	detach = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	fail := func(err error) (*obs.Registry, *trace.Recorder, func(), error) {
		detach()
		return nil, nil, nil, err
	}
	shutdown := func(srv *http.Server) func() {
		return func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}
	}
	if p.traceOut != "" {
		sink, err := trace.OpenFile(p.traceOut, trace.FileOptions{})
		if err != nil {
			return fail(err)
		}
		rec = trace.New(sink, trace.Config{})
		// Close flushes the ring; a sink error (a full disk) is sticky and surfaces here without having failed the
		// run itself.
		undo = append(undo, func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			}
		})
		fmt.Printf("trace: recording to %s\n", p.traceOut)
	}
	if p.pprofAddr != "" {
		srv, addr, err := obs.ServePprof(p.pprofAddr)
		if err != nil {
			return fail(err)
		}
		undo = append(undo, shutdown(srv))
		fmt.Printf("pprof: listening on http://%s/debug/pprof/\n", addr)
	}
	if p.metricsAddr != "" {
		reg = obs.NewRegistry()
		// The health handler wraps the metrics handler: the health paths
		// answer from the monitor (404 without one), everything else falls
		// through to /metrics.
		srv, addr, err := obs.ServeHandler(p.metricsAddr, health.Handler(mon, obs.Handler(reg)))
		if err != nil {
			return fail(err)
		}
		undo = append(undo, shutdown(srv))
		fmt.Printf("metrics: listening on http://%s/metrics (calibre sweep watch -addr %s)\n", addr, addr)
		if mon != nil {
			fmt.Printf("health: diagnosis on http://%s/healthz\n", addr)
		}
	}
	return reg, rec, detach, nil
}
