package main

import (
	"context"
	"fmt"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/flnet"
)

// runJoin joins a networked federation started by `calibre serve`. It
// derives its local data shard deterministically from (-setting, -scale,
// -seed, -id) — the same world the server derived, so the four world flags
// must match the server's — and every process holds exactly one client's
// partition.
func runJoin(args []string) error {
	fs := newFlagSet("join")
	var sc experiments.Scenario
	methodFlag(fs, &sc)
	settingFlag(fs, &sc)
	scaleSeedFlags(fs, &sc)
	var (
		addr       = fs.String("addr", "127.0.0.1:9100", "server address")
		id         = fs.Int("id", 0, "client id (must be unique across the federation)")
		simLatency = fs.Duration("sim-latency", 0, "artificial delay before each local update (straggler fault injection)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	world, err := sc.Build()
	if err != nil {
		return err
	}
	if *id < 0 || *id >= len(world.Env.Participants) {
		return fmt.Errorf("client id %d out of range [0,%d)", *id, len(world.Env.Participants))
	}
	shard := world.Env.Participants[*id]
	fmt.Printf("client %d joining %s (method %s, %d train / %d test samples)\n",
		*id, *addr, sc.Method, shard.Train.Len(), shard.Test.Len())
	var lat func(int) time.Duration
	if *simLatency > 0 {
		d := *simLatency
		lat = func(int) time.Duration { return d }
	}
	if err := flnet.RunClient(context.Background(), flnet.ClientConfig{
		Addr:         *addr,
		ClientID:     *id,
		Data:         shard,
		Trainer:      world.Method.Trainer,
		Personalizer: world.Method.Personalizer,
		Seed:         sc.Seed,
		SimLatency:   lat,
	}); err != nil {
		return err
	}
	fmt.Printf("client %d finished cleanly\n", *id)
	return nil
}
