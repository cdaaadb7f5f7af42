package main

import (
	"fmt"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// Every run pins the same parallelism, whatever the host offers, so two
// hosts' numbers differ by their speed and not by their core count. The
// values are recorded in the output; they are never read from the host.
const (
	pinGOMAXPROCS    = 2
	pinKernelWorkers = 2
	pinParallelism   = 2
)

const settingName = "cifar10-q(2,500)"

// workload is one federation the benchmark runs: a method on a world
// through a runtime. A run repeats this unit federation, each time on a
// freshly built environment and method, until its time budget is spent.
type workload struct {
	name string
	why  string

	method   string
	scale    experiments.Scale
	net      bool // through flnet over loopback TCP instead of fl.Simulator
	rounds   int  // rounds of one unit federation
	perRound int
	// wide replaces the preset's architecture with a 1024/256 one, so
	// per-parameter work (codec, wire, aggregation, checkpoint) outweighs
	// per-sample training.
	wide bool
	// ops attaches what an operator runs with: a checkpoint store saving
	// incrementally every round, the metrics registry, the flight
	// recorder and the health monitor.
	ops bool
}

var workloads = []workload{
	{
		name:   "sim-calibre",
		why:    "the paper's method (calibre-simclr) on the simulator every figure uses; local SSL training with k-means prototypes is ~98% of a round",
		method: "calibre-simclr", scale: experiments.ScaleCI, rounds: 40, perRound: 5,
	},
	{
		name:   "sim-fedavg",
		why:    "supervised baseline on the same world and kernels; no NT-Xent, k-means or prototype loss, and the streaming sink: the bypass for kmeans/ssl/core changes",
		method: "fedavg", scale: experiments.ScaleCI, rounds: 250, perRound: 5,
	},
	{
		name:   "net-calibre",
		why:    "the sim-calibre federation through flnet on loopback TCP with 20 real clients: same compute, isolates the round engine, gob envelopes and delta wire",
		method: "calibre-simclr", scale: experiments.ScaleCI, net: true, rounds: 40, perRound: 5,
	},
	{
		name:   "net-wide-ops",
		why:    "fedavg with a 282k-parameter model over flnet with per-round checkpoints and all three observability planes: per-parameter work dominates, wire is bandwidth-bound",
		method: "fedavg", scale: experiments.ScaleSmoke, net: true, rounds: 60, perRound: 2, wide: true, ops: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to a few rounds, for the harness's own tests.
func (w workload) quick() workload {
	w.rounds = 3
	return w
}

// world is a freshly built environment and method, with what building
// each cost.
type world struct {
	env      *experiments.Environment
	method   *fl.Method
	envDur   time.Duration
	buildDur time.Duration
}

// buildWorld generates the workload's inputs from seed. The program
// under test only ever sees the resulting Environment.
func buildWorld(w workload, seed int64) (*world, error) {
	setting, ok := experiments.Settings()[settingName]
	if !ok {
		return nil, fmt.Errorf("setting %s missing", settingName)
	}
	t0 := time.Now()
	env, err := experiments.BuildEnvironment(setting, w.scale, seed)
	if err != nil {
		return nil, err
	}
	if w.wide {
		env.Arch.HiddenDim, env.Arch.FeatDim = 1024, 256
	}
	t1 := time.Now()
	m, err := experiments.BuildMethod(env, w.method)
	if err != nil {
		return nil, err
	}
	return &world{env: env, method: m, envDur: t1.Sub(t0), buildDur: time.Since(t1)}, nil
}
