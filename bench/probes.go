package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"calibre/internal/core"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/health"
	"calibre/internal/kmeans"
	"calibre/internal/nn"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/ssl"
	"calibre/internal/store"
	"calibre/internal/tensor"
	"calibre/internal/trace"
)

// The probes time single layers from outside, at the shapes the
// workload puts through them, after the federations have run. Each
// reports the fastest of n repetitions: the least-disturbed execution
// of a deterministic piece of work. They explain an end-to-end number;
// they are never one.

const maxDuration = time.Duration(1<<63 - 1)

// fastest runs fn n times and returns the shortest duration.
func fastest(n int, fn func()) time.Duration {
	best := maxDuration
	for i := 0; i < n; i++ {
		t := time.Now()
		fn()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runProbes returns the probe metrics for workload w. n is the
// repetition count (1 in quick mode); last is a finished rep of the
// workload, whose final state the store and codec probes use.
func runProbes(ctx context.Context, w workload, seed int64, n int, last *rep, scratch string) (map[string]float64, error) {
	out := map[string]float64{}
	wd, err := buildWorld(w, seed)
	if err != nil {
		return nil, err
	}
	env := wd.env
	rng := rand.New(rand.NewSource(seed))
	client := env.Participants[0]
	rows := client.Train.X
	arch := env.Arch
	// The SSL trainer's configuration comes from a calibre method built
	// for this environment, whatever method the workload itself runs.
	cm, err := experiments.BuildMethod(env, "calibre-simclr")
	if err != nil {
		return nil, err
	}
	st, ok := cm.Trainer.(*core.SSLTrainer)
	if !ok {
		return nil, fmt.Errorf("calibre-simclr trainer is %T, want *core.SSLTrainer", cm.Trainer)
	}
	batch := st.Cfg.BatchSize

	// tensor: the three products of a dense layer's forward and backward
	// pass at (batch × in × hidden), pooled against serial.
	a := tensor.RandN(rng, 1, batch, arch.InputDim)
	b := tensor.RandN(rng, 1, arch.InputDim, arch.HiddenDim)
	y := tensor.New(batch, arch.HiddenDim)
	dy := tensor.RandN(rng, 1, batch, arch.HiddenDim)
	dw := tensor.New(arch.InputDim, arch.HiddenDim)
	dx := tensor.New(batch, arch.InputDim)
	reps := 20 * n
	mm := fastest(reps, func() { tensor.MatMulInto(y, a, b) })
	mmSerial := fastest(reps, func() { tensor.MatMulSerialInto(y, a, b) })
	out["tensor.matmul_ns"] = float64(mm.Nanoseconds())
	out["tensor.matmul_transa_ns"] = float64(fastest(reps, func() { tensor.MatMulTransAInto(dw, a, dy) }).Nanoseconds())
	out["tensor.matmul_transb_ns"] = float64(fastest(reps, func() { tensor.MatMulTransBInto(dx, dy, b) }).Nanoseconds())
	out["tensor.matmul_gflops"] = 2 * float64(batch*arch.InputDim*arch.HiddenDim) / float64(mm.Nanoseconds())
	out["tensor.pool_speedup"] = float64(mmSerial) / float64(mm)

	// nn: one SimCLR training step on the workload's architecture and
	// batch, split where ssl.Train splits it.
	backbone := ssl.NewBackbone(rng, arch)
	method, err := st.Factory(rng, backbone)
	if err != nil {
		return nil, err
	}
	tr := &ssl.Trainable{Backbone: backbone, Method: method}
	opt := nn.NewSGD(tr, st.Cfg.LR, st.Cfg.Momentum, 0)
	tape := nn.NewTape(tr.Arena())
	v1 := tensor.RandN(rng, 1, batch, arch.InputDim)
	v2 := tensor.RandN(rng, 1, batch, arch.InputDim)
	fwd, bwd, step := maxDuration, maxDuration, maxDuration
	for i := 0; i < 10*n; i++ {
		t0 := time.Now()
		loss := method.Loss(ssl.NewStepContextOn(tape, rng, backbone, v1, v2))
		t1 := time.Now()
		if err := nn.Backward(loss); err != nil {
			return nil, err
		}
		t2 := time.Now()
		opt.Step()
		opt.ZeroGrad()
		t3 := time.Now()
		tape.Reset()
		fwd, bwd, step = min(fwd, t1.Sub(t0)), min(bwd, t2.Sub(t1)), min(step, t3.Sub(t2))
	}
	out["nn.step_fwd_us"], out["nn.step_bwd_us"], out["nn.step_opt_us"] = us(fwd), us(bwd), us(step)

	// ssl: one client's whole local update without the prototype
	// regulariser; fl.train_ms_p50 minus this is what Calibre adds.
	var trainErr error
	out["ssl.train_ms"] = us(fastest(n, func() {
		if _, err := ssl.Train(rng, tr, rows, st.Cfg, nil); err != nil {
			trainErr = err
		}
	})) / 1e3
	if trainErr != nil {
		return nil, trainErr
	}

	// kmeans, core: clustering of one client's encodings (n = client
	// samples, d = FeatDim).
	x := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		x.SetRow(i, r)
	}
	enc := backbone.EncodeValue(x)
	k := core.DefaultOptions().NumClusters
	var res *kmeans.Result
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	out["kmeans.run_us"] = us(fastest(3*n, func() {
		r, err := kmeans.Run(rng, enc, kmeans.Config{K: k})
		keep(err)
		res = r
	}))
	if probeErr != nil {
		return nil, probeErr
	}
	out["kmeans.silhouette_us"] = us(fastest(3*n, func() { kmeans.Silhouette(enc, res.Assign) }))
	out["core.select_k_us"] = us(fastest(n, func() { _, err := core.SelectK(rng, enc, k); keep(err) }))
	out["core.divergence_us"] = us(fastest(n, func() { _, err := core.Divergence(rng, enc, k); keep(err) }))

	// param: the delta wire on a real (global, update) pair — the
	// federation's final global and one more local update from it.
	global := last.Global
	u, err := wd.method.Trainer.Train(ctx, rng, client, global, w.rounds)
	if err != nil {
		return nil, err
	}
	var d param.Delta
	out["param.diff_us"] = us(fastest(3*n, func() { keep(param.DiffInto(&d, global, u.Params)) }))
	scratchVec := make(param.Vector, len(global))
	out["param.apply_us"] = us(fastest(3*n, func() { _, err := d.ApplyInto(scratchVec, global); keep(err) }))
	out["param.delta_ratio"] = float64(d.Size()) / float64(d.DenseSize())

	// store: the checkpoint codec and a durable save of the final state.
	counts := make([]int, len(last.History))
	for i := range counts {
		counts[i] = len(env.Participants)
	}
	snap := &store.Snapshot{
		Meta:  store.Meta{Seed: seed, Fingerprint: store.Fingerprint("bench", w.name), Runtime: "server"},
		State: fl.SimState{Round: len(last.History), Global: global, History: last.History, EligibleCounts: counts},
	}
	var blob []byte
	out["store.encode_us"] = us(fastest(3*n, func() {
		bts, err := store.EncodeSnapshot(snap)
		keep(err)
		blob = bts
	}))
	out["store.decode_us"] = us(fastest(3*n, func() { _, err := store.DecodeSnapshot(blob); keep(err) }))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt, err := store.Open(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	out["store.save_ms"] = us(fastest(3*n, func() { _, err := ckpt.Save(snap); keep(err) })) / 1e3

	// obs, trace, health: what one round costs each observability plane,
	// at the workload's clients per round.
	sample := obs.RoundSample{Runtime: "server", Participants: w.perRound, Responders: w.perRound, MeanLoss: 1}
	for id := 0; id < w.perRound; id++ {
		sample.Clients = append(sample.Clients, obs.ClientSample{ID: id, Loss: 1, Norm: 1})
	}
	const planeRounds = 200
	perRound := func(d time.Duration) float64 { return us(d) / planeRounds }
	reg := obs.NewRegistry()
	ids := make([]int, w.perRound)
	out["obs.observe_round_us"] = perRound(fastest(n, func() {
		for r := 0; r < planeRounds; r++ {
			sample.Round = r
			reg.ObserveRound(sample)
			reg.AddParticipation(ids)
		}
	}))
	mon := health.NewMonitor(nil)
	out["health.observe_round_us"] = perRound(fastest(n, func() {
		for r := 0; r < planeRounds; r++ {
			sample.Round = r
			mon.ObserveRound(sample)
		}
	}))
	var sink bytes.Buffer
	rec := trace.New(&sink, trace.Config{})
	eventsPerRound := 2*w.perRound + 2 // dispatch + update per client, round start + end
	emit := fastest(n, func() {
		for r := 0; r < planeRounds; r++ {
			for e := 0; e < eventsPerRound; e++ {
				rec.Emit(trace.Event{Kind: trace.KindClientUpdate, TS: rec.Now(), Runtime: "server", Round: r, Client: e, Wire: "delta", Bytes: 1 << 20, Dur: 1, Loss: 1})
			}
		}
	})
	out["trace.emit_ns"] = float64(emit.Nanoseconds()) / float64(planeRounds*eventsPerRound)
	flush := maxDuration
	for i := 0; i < 3*n; i++ {
		// Start from an empty ring, so the timed flush drains exactly the
		// half ring that follows.
		keep(rec.Flush())
		for e := 0; e < 512; e++ {
			rec.Emit(trace.Event{Kind: trace.KindClientUpdate, TS: rec.Now(), Runtime: "server", Round: e, Client: e})
		}
		t := time.Now()
		keep(rec.Flush())
		flush = min(flush, time.Since(t))
	}
	out["trace.flush_us"] = us(flush)
	out["planes.overhead_us_per_round"] = out["obs.observe_round_us"] + out["health.observe_round_us"] + perRound(emit)
	return out, probeErr
}
