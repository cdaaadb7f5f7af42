// Command calibre-client joins a networked federation started by
// calibre-server. It derives its local data shard deterministically from
// (-setting, -scale, -seed, -id) — the same world the server derived — so
// every process holds exactly one client's partition.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/flnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calibre-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("calibre-client", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:9100", "server address")
		id         = fs.Int("id", 0, "client id (must be unique across the federation)")
		method     = fs.String("method", "calibre-simclr", "method name (must match the server)")
		setting    = fs.String("setting", "cifar10-q(2,500)", "experiment setting (must match the server)")
		scale      = fs.String("scale", "smoke", "scale preset (must match the server)")
		seed       = fs.Int64("seed", 42, "master seed (must match the server)")
		simLatency = fs.Duration("sim-latency", 0, "artificial delay before each local update (straggler fault injection)")
	)
	if err := fs.Parse(args); err != nil {
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
	if *id < 0 || *id >= len(env.Participants) {
		return fmt.Errorf("client id %d out of range [0,%d)", *id, len(env.Participants))
	}
	m, err := experiments.BuildMethod(env, *method)
	if err != nil {
		return err
	}
	fmt.Printf("client %d joining %s (method %s, %d train / %d test samples)\n",
		*id, *addr, *method, env.Participants[*id].Train.Len(), env.Participants[*id].Test.Len())
	var lat func(int) time.Duration
	if *simLatency > 0 {
		d := *simLatency
		lat = func(int) time.Duration { return d }
	}
	if err := flnet.RunClient(context.Background(), flnet.ClientConfig{
		Addr:         *addr,
		ClientID:     *id,
		Data:         env.Participants[*id],
		Trainer:      m.Trainer,
		Personalizer: m.Personalizer,
		Seed:         *seed,
		SimLatency:   lat,
	}); err != nil {
		return err
	}
	fmt.Printf("client %d finished cleanly\n", *id)
	return nil
}
