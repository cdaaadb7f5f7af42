package main

// The kernel harness (calibre perf kernels) is the reproducible perf gate for the
// linear-algebra core: it times the MatMul kernel family, an MLP train
// step and an end-to-end federated round, serial (one pool worker) versus
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
	"time"

	"calibre/internal/baselines"
	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/nn"
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
	allocsOp, bytesOp = math.MaxInt64, math.MaxInt64
	for i := 0; i < 5; i++ {
		objects, bytes := allocated(fn)
		allocsOp, bytesOp = min(allocsOp, objects), min(bytesOp, bytes)
	}
	return int64(elapsed) / iters, allocsOp, bytesOp
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

func benchKernels(minTime time.Duration, sizes []int) []KernelBenchRecord {
	rng := rand.New(rand.NewSource(1))
	var records []KernelBenchRecord
	for _, op := range kernelOps() {
		for _, size := range sizes {
			a := tensor.RandN(rng, 1, size, size)
			b := tensor.RandN(rng, 1, size, size)
			out := tensor.New(size, size)
			serialNs, _, _ := measure(minTime, func() { op.serial(out, a, b) })
			pooledNs, allocs, _ := measure(minTime, func() { op.pooled(out, a, b) })
			records = append(records, KernelBenchRecord{
				Op:              op.name,
				Shape:           fmt.Sprintf("%dx%dx%d", size, size, size),
				NsOp:            pooledNs,
				AllocsOp:        allocs,
				SerialNsOp:      serialNs,
				SpeedupVsSerial: float64(serialNs) / float64(pooledNs),
			})
		}
	}
	return records
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

// flRound returns a closure running a tiny but complete federated
// simulation: client sampling, parallel local FedAvg updates, aggregation.
func flRound() func() {
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
	clients := partition.BuildClients(rng, ds, parts, nil)
	arch := ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
	cfg := baselines.DefaultConfig(arch, 10)
	cfg.Train.Epochs = 1
	cfg.Train.BatchSize = 16
	cfg.Head.Epochs = 1
	method := baselines.NewFedAvg(cfg)
	return func() {
		sim, err := fl.NewSimulator(fl.SimConfig{
			Rounds: 2, ClientsPerRound: 2, Seed: 7,
		}, method, clients)
		if err != nil {
			panic(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			panic(err)
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
	file.Records = append(file.Records,
		benchSerialVsPool(minTime, workers, "mlp-train-step", "batch128-256-256-128-10", mlpTrainStep),
		benchSerialVsPool(minTime, workers, "fl-round", "fedavg-4clients-2rounds", flRound),
	)

	fmt.Printf("kernel bench: %s/%s gomaxprocs=%d workers=%d kernel_impl=%s\n", file.GOOS, file.GOARCH, file.GOMaxProcs, file.Workers, file.KernelImpl)
	fmt.Printf("%-14s %-24s %12s %12s %8s %8s\n", "op", "shape", "ns/op", "serial", "allocs", "speedup")
	for _, r := range file.Records {
		fmt.Printf("%-14s %-24s %12d %12d %8d %7.2fx\n", r.Op, r.Shape, r.NsOp, r.SerialNsOp, r.AllocsOp, r.SpeedupVsSerial)
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
	if file.KernelImpl != "avx2" && file.KernelImpl != "generic" {
		return fmt.Errorf("%s: kernel_impl is %q, want \"avx2\" or \"generic\": the file must say which row primitives it timed", path, file.KernelImpl)
	}
	for _, r := range file.Records {
		if r.Shape == serialPathShape && r.AllocsOp > 0 {
			return fmt.Errorf("%s: %s at serial-path shape %s allocates %d times per call, want 0", path, r.Op, r.Shape, r.AllocsOp)
		}
	}
	return nil
}
