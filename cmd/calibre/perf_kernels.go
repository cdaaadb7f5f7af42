package main

// The kernel harness (calibre perf kernels) is the reproducible perf gate for the
// linear-algebra core: it times the MatMul kernel family, the k-means distance
// primitives, the SimCLR loss, the optimizer's clip and step, an MLP train
// step, one Calibre local update, an end-to-end federated round and a
// loopback TCP federation, serial (one pool worker) versus
// the configured pool, and emits BENCH_kernels.json so the perf trajectory
// is tracked in-repo from PR to PR. The JSON schema is validated by this
// package's tests against the committed golden file.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"calibre/internal/baselines"
	"calibre/internal/data"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// KernelBenchSchema identifies the BENCH_kernels.json layout; bump it when
// fields change so downstream tooling can dispatch on it.
const KernelBenchSchema = "calibre/bench-kernels/v1"

// KernelBenchFile is the top-level layout of BENCH_kernels.json.
type KernelBenchFile struct {
	Schema     string `json:"schema"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	// KernelImpl is which implementation of tensor's row primitives the
	// measured process ran: "avx2" (the amd64 assembly) or "generic" (the
	// portable loops). Timings from the two are not comparable.
	KernelImpl string              `json:"kernel_impl"`
	Note       string              `json:"note,omitempty"`
	Records    []KernelBenchRecord `json:"records"`
}

// KernelBenchRecord is one (op, shape) measurement.
type KernelBenchRecord struct {
	Op       string `json:"op"`
	Shape    string `json:"shape"`
	NsOp     int64  `json:"ns_op"`
	AllocsOp int64  `json:"allocs_op"`
	// BytesOp is what one call allocates, in bytes, on the records that are
	// whole training steps or rounds (a kernel's is its handful of dispatch
	// objects and is left out): the count that shows a model-sized vector
	// copied or rebuilt per call, which allocs_op counts as one object.
	BytesOp         int64   `json:"bytes_op,omitempty"`
	SerialNsOp      int64   `json:"serial_ns_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// measure reports fn's steady-state ns/op (timing at least minTime) and
// what a call allocates, in objects and in bytes: the least of five calls,
// since what a call allocates has a floor and the runtime around it (a GC
// cycle emptying a pool) only ever adds — `calibre diff bench -fail
// allocs_op` and `-fail bytes_op` hold the counts to the committed ones.
// The five run with the collector off, so at most the first follows a GC:
// a call allocating megabytes would otherwise follow one nearly every time.
// Each starts from the same state of param's pool (settle), so the five,
// and the counts of one harness run and the next, are the same.
func measure(minTime time.Duration, fn func()) (nsOp, allocsOp, bytesOp int64) {
	fn() // warm up: pool spin-up, caches
	var iters int64
	start := time.Now()
	var elapsed time.Duration
	for elapsed < minTime {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocsOp, bytesOp = math.MaxInt64, math.MaxInt64
	for i := 0; i < 5; i++ {
		settle(fn)
		objects, bytes := allocated(fn)
		allocsOp, bytesOp = min(allocsOp, objects), min(bytesOp, bytes)
	}
	return int64(elapsed) / iters, allocsOp, bytesOp
}

// settle puts param's pool into one fixed state: it empties the pool, then
// runs fn once on one P, uncounted, so that the pool holds what a call on
// one P leaves idle — as the counted call runs. The timing loop runs fn on
// every P, where trainers of one call overlap as the scheduler lets them,
// and how many vectors it leaves idle varies from run to run; a counted
// call that found one more idle borrowed one vector fewer.
func settle(fn func()) {
	for param.Idle() > 0 {
		param.Borrow(0) // the idle vector of least capacity, dropped
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
}

// allocated runs fn once and reports the heap objects and bytes the process
// allocated meanwhile, on one P as testing.AllocsPerRun counts them.
func allocated(fn func()) (objects, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

type kernelOp struct {
	name   string
	serial func(out, a, b *tensor.Tensor)
	pooled func(out, a, b *tensor.Tensor)
}

func kernelOps() []kernelOp {
	return []kernelOp{
		{"matmul", tensor.MatMulSerialInto, tensor.MatMulInto},
		{"matmul-transa", tensor.MatMulTransASerialInto, tensor.MatMulTransAInto},
		{"matmul-transb", tensor.MatMulTransBSerialInto, tensor.MatMulTransBInto},
	}
}

// benchKernels times every kernel op on dense size³ cubes, which skip no
// coefficient, and then matmul and matmul-transa at the federation's
// ReLU-sparse layer (benchReLULayer).
func benchKernels(minTime time.Duration, sizes []int) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(1))
	var records []KernelBenchRecord
	for _, op := range kernelOps() {
		for _, size := range sizes {
			a := tensor.RandN(rng, 1, size, size)
			b := tensor.RandN(rng, 1, size, size)
			out := tensor.New(size, size)
			records = append(records, kernelRecord(minTime, op.name, fmt.Sprintf("%dx%dx%d", size, size, size),
				func() { op.serial(out, a, b) }, func() { op.pooled(out, a, b) }))
		}
	}
	return append(records, benchReLULayer(minTime)...)
}

// kernelRecord times one kernel op at one shape, serial and pooled.
func kernelRecord(minTime time.Duration, op, shape string, serial, pooled func()) KernelBenchRecord {
	serialNs, _, _ := measure(minTime, serial)
	pooledNs, allocs, _ := measure(minTime, pooled)
	return KernelBenchRecord{
		Op:              op,
		Shape:           shape,
		NsOp:            pooledNs,
		AllocsOp:        allocs,
		SerialNsOp:      serialNs,
		SpeedupVsSerial: float64(serialNs) / float64(pooledNs),
	}
}

// The federation's ReLU-sparse layer: a batch of reluBatch activations of
// width reluIn behind a ReLU, multiplied into reluOut outputs — the small
// model's hidden layer that every bench/ workload but net-wide-ops trains.
const reluBatch, reluIn, reluOut = 32, 96, 48

// benchReLULayer times the two products of that layer that skip zero
// coefficients: the forward x·W (matmul) and the weight gradient xᵀ·g
// (matmul-transa). About half of every x is +0, as behind a ReLU, and
// sixteen such x rotate from call to call, as in tensor's
// BenchmarkFederationShapes: with one repeated x the branch predictor
// learns where its zeros are, and a cost that depends on them reads as
// smaller than it is in training.
func benchReLULayer(minTime time.Duration) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(2))
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.RandN(rng, 1, reluBatch, reluIn)
		d := xs[i].Data()
		for j, v := range d {
			d[j] = max(v, 0)
		}
	}
	w, g := tensor.RandN(rng, 1, reluIn, reluOut), tensor.RandN(rng, 1, reluBatch, reluOut)
	y, dw := tensor.New(reluBatch, reluOut), tensor.New(reluIn, reluOut)
	calls := 0
	x := func() *tensor.Tensor {
		calls++
		return xs[calls%len(xs)]
	}
	shape := fmt.Sprintf("%dx%dx%d-relu", reluBatch, reluIn, reluOut)
	return []KernelBenchRecord{
		kernelRecord(minTime, "matmul", shape,
			func() { tensor.MatMulSerialInto(y, x(), w) }, func() { tensor.MatMulInto(y, x(), w) }),
		kernelRecord(minTime, "matmul-transa", shape,
			func() { tensor.MatMulTransASerialInto(dw, x(), g) }, func() { tensor.MatMulTransAInto(dw, x(), g) }),
	}
}

// benchSerialVsPool times fn with a one-worker pool and with the configured
// pool, restoring the pool afterwards.
func benchSerialVsPool(minTime time.Duration, workers int, op, shape string, mk func() func()) KernelBenchRecord {
	tensor.SetWorkers(1)
	serialNs, _, _ := measure(minTime, mk())
	tensor.SetWorkers(workers)
	pooledNs, allocs, bytes := measure(minTime, mk())
	tensor.SetWorkers(0)
	return KernelBenchRecord{
		Op:              op,
		Shape:           shape,
		NsOp:            pooledNs,
		AllocsOp:        allocs,
		BytesOp:         bytes,
		SerialNsOp:      serialNs,
		SpeedupVsSerial: float64(serialNs) / float64(pooledNs),
	}
}

// mlpTrainStep returns a closure running one supervised forward/backward/
// optimizer step of an MLP wide enough to cross the kernels' parallel
// threshold.
func mlpTrainStep() func() {
	rng := rand.New(rand.NewSource(3))
	model := nn.MLP(rng, "bench", 256, 256, 128, 10)
	opt := nn.NewSGD(model, 0.05, 0.9, 0)
	x := tensor.RandN(rng, 1, 128, 256)
	targets := make([]int, 128)
	for i := range targets {
		targets[i] = rng.Intn(10)
	}
	return func() {
		opt.ZeroGrad()
		loss := nn.CrossEntropy(nn.ForwardTensor(model, x), targets)
		if err := nn.Backward(loss); err != nil {
			panic(err)
		}
		opt.Step()
	}
}

// sqDistBatch is the point set the sqdist records measure: the batch
// Calibre clusters at the ci scale (32 pair means of the 48-wide projector
// output), with ten centres, SelectK's largest K.
const (
	sqDistPoints  = 32
	sqDistDim     = 48
	sqDistCenters = 10
)

// benchSqDist times the two distance primitives k-means runs on, at
// sqDistBatch: one assignment pass (every point against every centre, as
// 4×4 tensor.SqDistTile tiles, the last one padded) and one seeding pass
// (one centre against every point, tensor.SqDistRows). Neither splits
// across the pool, so the serial and pooled timings are the same call.
func benchSqDist(minTime time.Duration) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandN(rng, 1, sqDistPoints, sqDistDim)
	centers := tensor.RandN(rng, 1, sqDistCenters, sqDistDim)
	dist := make([]float64, sqDistPoints)
	var tile [16]float64
	assign := func() {
		var pts, cs [4][]float64
		for i0 := 0; i0 < sqDistPoints; i0 += 4 {
			for r := range pts {
				pts[r] = x.Row(i0 + r)
			}
			for c0 := 0; c0 < sqDistCenters; c0 += 4 {
				for j := range cs {
					cs[j] = centers.Row(min(c0+j, sqDistCenters-1))
				}
				tensor.SqDistTile(&tile, &pts, &cs)
			}
		}
	}
	seed := func() { tensor.SqDistRows(dist, centers.Row(0), x.Data()) }
	var records []KernelBenchRecord
	for _, c := range []struct {
		shape string
		fn    func()
	}{
		{fmt.Sprintf("tile-%dpoints-%dcenters-%d", sqDistPoints, sqDistCenters, sqDistDim), assign},
		{fmt.Sprintf("rows-1center-%dpoints-%d", sqDistPoints, sqDistDim), seed},
	} {
		ns, allocs, _ := measure(minTime, c.fn)
		records = append(records, KernelBenchRecord{
			Op: "sqdist", Shape: c.shape, NsOp: ns, AllocsOp: allocs, SerialNsOp: ns, SpeedupVsSerial: 1,
		})
	}
	return records
}

// ntxentRows and ntxentDim are the shape the ntxent record measures: a
// SimCLR step's projections of 32 samples, two views each, 24 wide.
const (
	ntxentRows = 64
	ntxentDim  = 24
)

// benchNTXent times nn.NTXent forward and backward: the normalized
// similarities and the masked log-softmax rows behind the SimCLR loss, on a
// step tape reset after every call. The projections are a parameter added to
// a taped input, so that the graph draws its buffers from the tape's arena
// and the backward pass reaches every op, as in a training step. Its
// products are below the pool's threshold, so the serial and pooled timings
// are the same call.
func benchNTXent(minTime time.Duration) KernelBenchRecord {
	rng := rand.New(rand.NewSource(10))
	tape := nn.NewTape(tensor.NewArena())
	h := nn.NewParam("h", ntxentRows, ntxentDim)
	grads := tape.LendGrads(paramSet{h})
	x := tensor.RandN(rng, 1, ntxentRows, ntxentDim)
	step := func() {
		clear(grads)
		loss := nn.NTXent(nn.Add(nn.InputOn(tape, x), h.Node()), 0.5)
		if err := nn.Backward(loss); err != nil {
			panic(err)
		}
		tape.Reset()
	}
	ns, allocs, _ := measure(minTime, step)
	return KernelBenchRecord{
		Op: "ntxent", Shape: fmt.Sprintf("%dx%d", ntxentRows, ntxentDim), NsOp: ns, AllocsOp: allocs, SerialNsOp: ns, SpeedupVsSerial: 1,
	}
}

// sgdStepClip is the clip norm of the supervised baselines' local update
// (model.DefaultSupTrainConfig), which the sgd-step records run with.
const sgdStepClip = 5

// benchSGDStep times one optimizer step as nn.StepLoop runs it —
// ClipGradNorm, then SGD.Step with momentum — over the supervised model
// fedavg trains in a bench/ workload: sim-fedavg's (the ci scale's arch)
// with gradients of norm 1, where the clip's bound decides and nothing is
// scaled, and net-wide-ops' (the smoke scale's inputs, a 1024/256 encoder)
// with gradients of norm 50, which clip. The clipping record copies its
// gradients back before every step, as a backward pass rewrites them, so
// that every call clips; its ns_op includes the copy. Neither splits across
// the pool, so the serial and pooled timings are the same call.
func benchSGDStep(minTime time.Duration) []KernelBenchRecord {
	var records []KernelBenchRecord
	for _, c := range []struct {
		scale    experiments.Scale
		wide     bool
		gradNorm float64
		what     string
	}{
		{experiments.ScaleCI, false, 1, "bound-decides"},
		{experiments.ScaleSmoke, true, 50, "clips"},
	} {
		fn, n := sgdStep(c.scale, c.wide, c.gradNorm)
		ns, allocs, bytes := measure(minTime, fn)
		records = append(records, KernelBenchRecord{
			Op: "sgd-step", Shape: fmt.Sprintf("fedavg-%dparams-%s", n, c.what), NsOp: ns, AllocsOp: allocs, BytesOp: bytes,
			SerialNsOp: ns, SpeedupVsSerial: 1,
		})
	}
	return records
}

// sgdStep returns a closure running ClipGradNorm and Step over the
// supervised model of the scale's arch (wide: a 1024/256 encoder), with
// gradients drawn once at norm gradNorm, and the model's parameter count.
func sgdStep(scale experiments.Scale, wide bool, gradNorm float64) (func(), int) {
	env, err := experiments.BuildEnvironment(experiments.Settings()[calibreStepSetting], scale, 42)
	if err != nil {
		panic(err)
	}
	if wide {
		env.Arch.HiddenDim, env.Arch.FeatDim = 1024, 256
	}
	rng := rand.New(rand.NewSource(11))
	m := model.NewSupModel(rng, env.Arch, env.NumClasses)
	cfg := model.DefaultSupTrainConfig()
	opt := nn.NewSGD(m, cfg.LR, cfg.Momentum, 0) // gives the model gradient storage of its own
	grads := nn.Grads(m)
	for i := range grads {
		grads[i] = rng.NormFloat64()
	}
	tensor.ScaleSlice(grads, gradNorm/math.Sqrt(tensor.SumSquares(grads)))
	drawn := append([]float64(nil), grads...)
	clips := gradNorm > sgdStepClip
	return func() {
		if clips {
			copy(grads, drawn)
		}
		opt.ClipGradNorm(sgdStepClip)
		opt.Step()
	}, len(grads)
}

// paramSet is a module of loose parameters.
type paramSet []*nn.Param

func (p paramSet) Params() []*nn.Param { return p }

// calibreStepSetting is the setting the calibre-step record trains in, the
// one bench/'s workloads federate.
const calibreStepSetting = "cifar10-q(2,500)"

// calibreStep returns a closure running one Calibre local update —
// calibre-simclr's core.SSLTrainer.Train for one client at the ci scale,
// past the regularizer's warm-up, so that the call runs augmentation, the
// SimCLR steps with k-means pseudo-labels and prototype losses, and the
// divergence clustering. Every call trains the same client from the same
// global with the same draws, so from the second call on the client's state
// and the pooled step buffers are warm for exactly the work the call does,
// as they are for a client sampled again in a federation, and allocs_op
// repeats however many calls the timing made. The update's payload is Lent:
// the call gives it back, as the round it would arrive in does.
func calibreStep() func() {
	env, err := experiments.BuildEnvironment(experiments.Settings()[calibreStepSetting], experiments.ScaleCI, 42)
	if err != nil {
		panic(err)
	}
	method, err := experiments.BuildMethod(env, "calibre-simclr")
	if err != nil {
		panic(err)
	}
	global, err := method.InitGlobal(rand.New(rand.NewSource(8)))
	if err != nil {
		panic(err)
	}
	client, rng := env.Participants[0], rand.New(rand.NewSource(9))
	const round = 1 << 20 // past any warm-up
	return func() {
		rng.Seed(9)
		u, err := method.Trainer.Train(context.Background(), rng, client, global, round)
		if err != nil {
			panic(err)
		}
		u.GiveBack()
	}
}

// benchClients builds the four small clients the round records federate.
func benchClients() []*partition.Client {
	rng := rand.New(rand.NewSource(4))
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	g, err := data.NewGenerator(spec, 1)
	if err != nil {
		panic(err)
	}
	ds := g.GenerateLabeled(rng, 40)
	parts, err := partition.IID(rng, ds, 4, 40)
	if err != nil {
		panic(err)
	}
	return partition.BuildClients(rng, ds, parts, nil)
}

// flRound returns a closure running a tiny but complete federated
// simulation: client sampling, parallel local FedAvg updates, aggregation.
// Every call federates one method, so from the second call on its clients
// are ones it has trained before.
func flRound() func() {
	clients, method := benchClients(), flRoundMethod()
	return func() { simulateRounds(method, clients, 2, 0) }
}

// flRoundsSerial runs eight rounds, one client training at a time. From
// round 1 on each round gives the global it superseded back to param's
// pool, where the next round's aggregate borrows it, and with one trainer
// at a time the pool lends and takes back in the same order on every
// call: bytes_op counts the two model-sized vectors a run keeps out of the
// pool (its final global and the one its final round superseded), not one
// a round. The two-round records cannot show that — their only superseded
// globals are InitGlobal's and the final round's — and with trainers
// overlapping, whether a call finds the pool short varies from call to
// call.
func flRoundsSerial() func() {
	clients, method := benchClients(), flRoundMethod()
	return func() { simulateRounds(method, clients, 8, 1) }
}

// flRoundNewClients is flRound with a new method on every call, so every
// call meets clients it never trained, as each bench/ repetition does: what
// is kept per client rather than per running trainer — a model or its step
// buffers, say — shows in its bytes_op, where flRound's warm clients hide it.
func flRoundNewClients() func() {
	clients := benchClients()
	return func() { simulateRounds(flRoundMethod(), clients, 2, 0) }
}

// flRoundMethod is the small FedAvg method the round records federate.
func flRoundMethod() *fl.Method {
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	cfg := baselines.DefaultConfig(arch, 10)
	cfg.Train.Epochs = 1
	cfg.Train.BatchSize = 16
	cfg.Head.Epochs = 1
	return baselines.NewFedAvg(cfg)
}

// simulateRounds runs rounds rounds of two clients of method in the
// simulator, parallel of them training at once (0: the default).
func simulateRounds(method *fl.Method, clients []*partition.Client, rounds, parallel int) {
	sim, err := fl.NewSimulator(fl.SimConfig{
		Rounds: rounds, ClientsPerRound: 2, Seed: 7, Parallelism: parallel,
	}, method, clients)
	if err != nil {
		panic(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		panic(err)
	}
}

// flnetRoundParams is the flnet-round model size: a frame of just over
// 192 KiB, far beyond bufio's buffers, so a byte buffer the size of a frame
// shows in bytes_op.
const flnetRoundParams = 3*8192 + 5

// wireTrainer adds one to the global in a vector each client owns, so a
// loopback federation of it allocates what the wire and the round engine do.
type wireTrainer []param.Vector

func (w wireTrainer) Train(_ context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, _ int) (*fl.Update, error) {
	p := w[c.ID]
	for i, x := range global {
		p[i] = x + 1
	}
	return &fl.Update{ClientID: c.ID, Params: p, NumSamples: 1}, nil
}

func (wireTrainer) Personalize(context.Context, *rand.Rand, *partition.Client, param.Vector) (float64, error) {
	return 0, nil
}

// flnetRound returns a closure running a whole loopback TCP federation:
// four clients join, two rounds of two, personalization and shutdown.
func flnetRound() func() {
	clients := benchClients()
	trainer := make(wireTrainer, len(clients))
	for _, c := range clients {
		trainer[c.ID] = make(param.Vector, flnetRoundParams)
	}
	return func() {
		srv, err := flnet.NewServer(flnet.ServerConfig{
			Addr: "127.0.0.1:0", NumClients: len(clients), Rounds: 2, ClientsPerRound: 2, Seed: 7,
			Aggregator: fl.WeightedAverage{},
			InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, flnetRoundParams), nil },
		})
		if err != nil {
			panic(err)
		}
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = flnet.RunClient(context.Background(), flnet.ClientConfig{Addr: srv.Addr().String(), ClientID: c.ID,
					Data: c, Trainer: trainer, Personalizer: trainer, Seed: 7})
			}()
		}
		_, err = srv.Run(context.Background())
		wg.Wait()
		for _, e := range append(errs, err) {
			if e != nil {
				panic(e)
			}
		}
	}
}

// runKernelBench runs the full harness and writes BENCH_kernels.json into
// outDir (creating it if needed). quick shrinks per-measurement time so the
// harness fits in CI.
func runKernelBench(outDir string, quick bool) error {
	minTime := 300 * time.Millisecond
	if quick {
		minTime = 30 * time.Millisecond
	}
	workers := tensor.Workers()
	file := KernelBenchFile{
		Schema:     KernelBenchSchema,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		KernelImpl: tensor.KernelImpl(),
	}
	if file.GOMaxProcs == 1 {
		file.Note = "recorded on a single-core host: pool workers time-slice one core, so speedup_vs_serial reflects overhead, not parallelism"
	}
	file.Records = benchKernels(minTime, []int{64, 128, 256})
	file.Records = append(file.Records, benchSqDist(minTime)...)
	file.Records = append(file.Records, benchNTXent(minTime))
	file.Records = append(file.Records, benchSGDStep(minTime)...)
	file.Records = append(file.Records,
		benchSerialVsPool(minTime, workers, "mlp-train-step", "batch128-256-256-128-10", mlpTrainStep),
		benchSerialVsPool(minTime, workers, "calibre-step", "calibre-simclr-ci-1client", calibreStep),
		benchSerialVsPool(minTime, workers, "fl-round", "fedavg-4clients-2rounds", flRound),
		benchSerialVsPool(minTime, workers, "fl-round", "fedavg-4clients-2rounds-new-clients", flRoundNewClients),
		benchSerialVsPool(minTime, workers, "fl-round", "fedavg-4clients-8rounds-serial", flRoundsSerial),
		benchSerialVsPool(minTime, workers, "flnet-round", fmt.Sprintf("tcp-4clients-2rounds-%dparams", flnetRoundParams), flnetRound),
	)

	fmt.Printf("kernel bench: %s/%s gomaxprocs=%d workers=%d kernel_impl=%s\n", file.GOOS, file.GOARCH, file.GOMaxProcs, file.Workers, file.KernelImpl)
	fmt.Printf("%-14s %-32s %12s %12s %8s %8s\n", "op", "shape", "ns/op", "serial", "allocs", "speedup")
	for _, r := range file.Records {
		fmt.Printf("%-14s %-32s %12d %12d %8d %7.2fx\n", r.Op, r.Shape, r.NsOp, r.SerialNsOp, r.AllocsOp, r.SpeedupVsSerial)
	}

	path, err := writeBenchFile(outDir, "BENCH_kernels.json", &file)
	if err != nil {
		return err
	}
	return checkKernelBenchFile(path)
}

// writeBenchFile writes a harness's envelope as indented JSON into outDir
// (creating it if needed) and returns the file's path.
func writeBenchFile(outDir, name string, file any) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("create output dir: %w", err)
	}
	path := filepath.Join(outDir, name)
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return "", err
	}
	fmt.Printf("[wrote %s]\n", path)
	return path, nil
}

// serialPathShape is the harness shape below the kernels' pooling
// threshold: its products run on the calling goroutine and must not
// allocate.
const serialPathShape = "64x64x64"

// checkKernelBenchFile re-reads what the harness just wrote, so that a run
// (ci.sh's quick one included) fails when the file does not parse, does not
// name the kernel implementation it timed, or when a serial-path kernel has
// started allocating — the regression the training
// hot path cannot afford, since it calls these kernels at shapes this small.
func checkKernelBenchFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file KernelBenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("%s does not parse: %w", path, err)
	}
	if file.Schema != KernelBenchSchema || len(file.Records) == 0 {
		return fmt.Errorf("%s: schema %q with %d records, want %q and at least one", path, file.Schema, len(file.Records), KernelBenchSchema)
	}
	if impls := tensor.KernelImpls(); !slices.Contains(impls, file.KernelImpl) {
		return fmt.Errorf("%s: kernel_impl is %q, want one of %q: the file must say which row primitives it timed", path, file.KernelImpl, impls)
	}
	for _, r := range file.Records {
		if r.Shape == serialPathShape && r.AllocsOp > 0 {
			return fmt.Errorf("%s: %s at serial-path shape %s allocates %d times per call, want 0", path, r.Op, r.Shape, r.AllocsOp)
		}
	}
	return nil
}
