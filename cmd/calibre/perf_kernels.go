package main

// The kernel harness (calibre perf kernels) is the reproducible perf gate for the
// linear-algebra core: it times the MatMul kernel family, the k-means distance
// primitives, the SimCLR loss, the optimizer's clip and step, FedAvg's
// streaming sink, an MLP train
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
	"calibre/internal/core"
	"calibre/internal/data"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/kmeans"
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
// ReLU-sparse layers (benchReLULayer).
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
	for _, l := range reluLayers {
		records = append(records, benchReLULayer(minTime, l[0], l[1], l[2])...)
	}
	return records
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

// reluLayers are the federation's ReLU-sparse layers as (batch, inputs,
// outputs): a batch of activations behind a ReLU multiplied into a layer's
// outputs. The small model's hidden layer, 32 × 96 → 48, is trained by
// every bench/ workload but net-wide-ops; the supervised head, 32 × 48 →
// 10, sweeps the narrowest output rows the row kernel has.
var reluLayers = [][3]int{{32, 96, 48}, {32, 48, 10}}

// benchReLULayer times the two products of one such layer that skip zero
// coefficients: the forward x·W (matmul) and the weight gradient xᵀ·g
// (matmul-transa). About half of every x is +0, as behind a ReLU, and
// sixteen such x rotate from call to call, as in tensor's
// BenchmarkFederationShapes: with one repeated x the branch predictor
// learns where its zeros are, and a cost that depends on them reads as
// smaller than it is in training.
func benchReLULayer(minTime time.Duration, batch, in, out int) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(2))
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.RandN(rng, 1, batch, in)
		d := xs[i].Data()
		for j, v := range d {
			d[j] = max(v, 0)
		}
	}
	w, g := tensor.RandN(rng, 1, in, out), tensor.RandN(rng, 1, batch, out)
	y, dw := tensor.New(batch, out), tensor.New(in, out)
	calls := 0
	x := func() *tensor.Tensor {
		calls++
		return xs[calls%len(xs)]
	}
	shape := fmt.Sprintf("%dx%dx%d-relu", batch, in, out)
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

// benchSelectK times Calibre's cluster-count search (core.SelectKIn, the
// grid up to K = 10: six k-means runs and six silhouettes over one batch's
// distance tables) at the two shapes it meets: a SimCLR step's 32 pair
// means of the 24-wide projector output, and a client's divergence search
// over 125 encodings 48 wide. The calls draw on from one rng — reseeding
// would cost a third of a small search — so they cluster the same batch
// from different draws, and ns_op is their mean; each runs in a workspace
// and an arena warm from the calls before, so allocs_op is 0. The search
// does not split across the pool, so the serial and pooled timings are the
// same call.
func benchSelectK(minTime time.Duration) []KernelBenchRecord {
	var records []KernelBenchRecord
	for i, shape := range [][2]int{{32, 24}, {125, 48}} {
		x := tensor.RandN(rand.New(rand.NewSource(int64(11+i))), 1, shape[0], shape[1])
		arena, ws, rng := tensor.NewArena(), new(kmeans.Workspace), rand.New(rand.NewSource(12))
		search := func() {
			if _, _, err := core.SelectKIn(arena, ws, rng, x, 10); err != nil {
				panic(err)
			}
		}
		ns, allocs, _ := measure(minTime, search)
		records = append(records, KernelBenchRecord{
			Op: "select-k", Shape: fmt.Sprintf("%dx%d-maxK10", shape[0], shape[1]), NsOp: ns, AllocsOp: allocs,
			SerialNsOp: ns, SpeedupVsSerial: 1,
		})
	}
	return records
}

// The softmax-loss records' shapes: a SimCLR step's projections of 32
// samples, two views each, 24 wide (ntxent stacked, pair-ntxent as two
// views); and Calibre's L_n, 32 encodings 48 wide against 4 prototypes.
const (
	lossSamples = 32
	lossProjDim = 24
	lossFeatDim = 48
	lossProtos  = 4
	lossTau     = 0.5
)

// benchSoftmaxLosses times the three softmax losses forward and backward —
// nn.NTXent, nn.PairNTXent and nn.PrototypeCE, each one node: the
// normalized similarities and the softmax rows behind SimCLR's loss and
// Calibre's prototype losses — on a step tape reset after every call.
func benchSoftmaxLosses(minTime time.Duration) []KernelBenchRecord {
	assign := make([]int, lossSamples)
	for i := range assign {
		assign[i] = i % lossProtos
	}
	return []KernelBenchRecord{
		benchTapedLoss(minTime, "ntxent", fmt.Sprintf("%dx%d", 2*lossSamples, lossProjDim),
			[][2]int{{2 * lossSamples, lossProjDim}}, func(in []*nn.Node) *nn.Node {
				return nn.NTXent(in[0], lossTau)
			}),
		benchTapedLoss(minTime, "pair-ntxent", fmt.Sprintf("%d+%dx%d", lossSamples, lossSamples, lossProjDim),
			[][2]int{{lossSamples, lossProjDim}, {lossSamples, lossProjDim}}, func(in []*nn.Node) *nn.Node {
				return nn.PairNTXent(in[0], in[1], lossTau)
			}),
		benchTapedLoss(minTime, "prototype-ce", fmt.Sprintf("%dx%d-%dprotos", lossSamples, lossFeatDim, lossProtos),
			[][2]int{{lossSamples, lossFeatDim}, {lossProtos, lossFeatDim}}, func(in []*nn.Node) *nn.Node {
				return nn.PrototypeCE(in[0], in[1], assign, lossTau)
			}),
	}
}

// benchTapedLoss times loss forward and backward on a step tape reset
// after every call. Each operand is a parameter added to a taped input of
// its shape, so that the graph draws its buffers from the tape's arena and
// the backward pass reaches every op, as in a training step. The products
// are below the pool's threshold, so the serial and pooled timings are the
// same call.
func benchTapedLoss(minTime time.Duration, op, shape string, shapes [][2]int, loss func(in []*nn.Node) *nn.Node) KernelBenchRecord {
	rng := rand.New(rand.NewSource(10))
	tape := nn.NewTape(tensor.NewArena())
	params := make(paramSet, len(shapes))
	xs := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		params[i] = nn.NewParam(fmt.Sprintf("in%d", i), s[0], s[1])
		xs[i] = tensor.RandN(rng, 1, s[0], s[1])
	}
	grads := tape.LendGrads(params)
	in := make([]*nn.Node, len(shapes))
	step := func() {
		clear(grads)
		for i, x := range xs {
			in[i] = nn.Add(nn.InputOn(tape, x), params[i].Node())
		}
		if err := nn.Backward(loss(in)); err != nil {
			panic(err)
		}
		tape.Reset()
	}
	ns, allocs, _ := measure(minTime, step)
	return KernelBenchRecord{Op: op, Shape: shape, NsOp: ns, AllocsOp: allocs, SerialNsOp: ns, SpeedupVsSerial: 1}
}

// sgdStepClip is the clip norm of the supervised baselines' local update
// (model.DefaultSupTrainConfig), which the sgd-step records run with.
const sgdStepClip = 5

// benchSGDStep times one optimizer step as nn.StepLoop runs it —
// ClipGradNorm, then SGD.Step with momentum — over the supervised model
// fedavg trains in a bench/ workload: sim-fedavg's (the ci scale's arch)
// with gradients of norm 1, where the clip's bound decides and nothing is
// scaled, and net-wide-ops' (the smoke scale's inputs, a 1024/256 encoder)
// with gradients of norm 50, which clip. The clipping records copy their
// gradients back before every step, as a backward pass rewrites them, so
// that every call clips; their ns_op includes the copy. The first of them
// is every later step of a local update (the velocity held, the clip past
// its first scaling), the second a local update's first step: the
// optimizer is released after each, so the clip tries its bound and the
// step borrows a velocity it does not read. None splits across the pool,
// so the serial and pooled timings are the same call.
func benchSGDStep(minTime time.Duration) []KernelBenchRecord {
	var records []KernelBenchRecord
	for _, c := range []struct {
		scale    experiments.Scale
		wide     bool
		gradNorm float64
		first    bool
		what     string
	}{
		{experiments.ScaleCI, false, 1, false, "bound-decides"},
		{experiments.ScaleSmoke, true, 50, false, "clips"},
		{experiments.ScaleSmoke, true, 50, true, "clips-first-step"},
	} {
		fn, n := sgdStep(c.scale, c.wide, c.gradNorm, c.first)
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
// gradients drawn once at norm gradNorm, and the model's parameter count;
// with first, the closure releases the optimizer after its step, so that
// every call is a local update's first step.
func sgdStep(scale experiments.Scale, wide bool, gradNorm float64, first bool) (func(), int) {
	rng := rand.New(rand.NewSource(11))
	m := wideSupModel(rng, scale, wide)
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
		if first {
			opt.Release()
		}
	}, len(grads)
}

// wideSupModel is the supervised model of the scale's arch (wide: a
// 1024/256 encoder, net-wide-ops' model), initialised from rng.
func wideSupModel(rng *rand.Rand, scale experiments.Scale, wide bool) *model.SupModel {
	env, err := experiments.BuildEnvironment(experiments.Settings()[calibreStepSetting], scale, 42)
	if err != nil {
		panic(err)
	}
	if wide {
		env.Arch.HiddenDim, env.Arch.FeatDim = 1024, 256
	}
	return model.NewSupModel(rng, env.Arch, env.NumClasses)
}

// sinkUpdates is how many updates the fedavg-sink round record aggregates:
// net-wide-ops' clients per round.
const sinkUpdates = 2

// benchSink times FedAvg's streaming sink over net-wide-ops' model: one
// Ingest into a running sink (an add), and a whole round — NewSink, the
// first update written and the rest added, Finish's scaling — whose
// aggregate goes back to param's pool. Both shard over the pool as the
// round core runs them, so the serial and pooled timings are the same call.
func benchSink(minTime time.Duration) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(12))
	global := nn.Flatten(wideSupModel(rng, experiments.ScaleSmoke, true))
	updates := make([]*fl.Update, sinkUpdates)
	for i := range updates {
		p := make([]float64, len(global))
		for j := range p {
			p[j] = global[j] + 0.01*rng.NormFloat64()
		}
		updates[i] = &fl.Update{ClientID: i, Params: p, NumSamples: 20 + i}
	}
	running := fl.WeightedAverage{}.NewSink(global)
	var records []KernelBenchRecord
	for _, c := range []struct {
		what string
		fn   func()
	}{
		{"ingest", func() {
			if err := running.Ingest(updates[0]); err != nil {
				panic(err)
			}
		}},
		{fmt.Sprintf("%dupdates", sinkUpdates), func() {
			agg, err := fl.WeightedAverage{}.Aggregate(global, updates)
			if err != nil {
				panic(err)
			}
			param.GiveBack(agg)
		}},
	} {
		ns, allocs, _ := measure(minTime, c.fn)
		records = append(records, KernelBenchRecord{
			Op: "fedavg-sink", Shape: fmt.Sprintf("%dparams-%s", len(global), c.what), NsOp: ns, AllocsOp: allocs,
			SerialNsOp: ns, SpeedupVsSerial: 1,
		})
	}
	return records
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
	file.Records = append(file.Records, benchSelectK(minTime)...)
	file.Records = append(file.Records, benchSoftmaxLosses(minTime)...)
	file.Records = append(file.Records, benchSGDStep(minTime)...)
	file.Records = append(file.Records, benchSink(minTime)...)
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
