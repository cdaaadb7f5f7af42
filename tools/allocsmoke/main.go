// Command allocsmoke is the CI gate for the allocation-free training hot
// path, run by ci.sh. It executes a real calibre-simclr federation (fused
// kernels + buffer arena + delta wire — the shipping configuration) once to
// warm the per-client arenas, then meters a second run with
// runtime.ReadMemStats and fails if heap allocations per round exceed the
// committed budget. The budget carries ~50% headroom over the measured
// steady state, so ordinary drift passes but a regression that
// re-introduces per-op allocations — a dropped arena, an unfused layer, a
// per-round wire copy — trips the gate. The same count on the benchmark's
// federation is allocs_per_round of
//
//	go run -C bench . --workload sim-calibre
//
//	go run ./tools/allocsmoke
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"calibre/internal/core"
	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// allocBudgetPerRound is the committed ceiling on heap allocations per
// federation round. The steady state this program measures is 3,224
// allocs/round (its own "ok" line prints it); revisit this number when the
// hot path legitimately changes.
const allocBudgetPerRound = 4800

const (
	rounds   = 2
	perRound = 4
	seed     = 42
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "allocsmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	s, ok := experiments.Settings()["cifar10-q(2,500)"]
	if !ok {
		return fmt.Errorf("setting cifar10-q(2,500) missing")
	}
	env, err := experiments.BuildEnvironment(s, experiments.ScaleSmoke, seed)
	if err != nil {
		return err
	}
	m, err := experiments.BuildMethod(env, "calibre-simclr")
	if err != nil {
		return err
	}
	if _, ok := m.Trainer.(*core.SSLTrainer); !ok {
		return fmt.Errorf("calibre-simclr trainer is %T, want *core.SSLTrainer (arena path not exercised)", m.Trainer)
	}

	runSim := func() error {
		sim, err := fl.NewSimulator(fl.SimConfig{
			Rounds: rounds, ClientsPerRound: perRound, Seed: seed, DeltaUpdates: true,
		}, m, env.Participants)
		if err != nil {
			return err
		}
		_, _, err = sim.Run(context.Background())
		return err
	}
	if err := runSim(); err != nil { // warm-up: client states, arena free lists
		return err
	}

	// Mallocs is a monotonic counter, so intervening GCs cannot perturb the
	// delta; the explicit GC just keeps heap growth out of the traced run.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := runSim(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	got := int64(after.Mallocs-before.Mallocs) / rounds
	if got > allocBudgetPerRound {
		return fmt.Errorf("hot path allocates %d objects/round, budget is %d — the allocation-free path regressed (allocs_per_round of go run -C bench . --workload sim-calibre shows it on a full federation)", got, allocBudgetPerRound)
	}
	fmt.Printf("allocsmoke: ok (%d allocs/round ≤ budget %d)\n", got, allocBudgetPerRound)
	return nil
}
