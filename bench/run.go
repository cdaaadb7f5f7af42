package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/store"
	"calibre/internal/trace"
)

// repOptions selects how one unit federation is run.
type repOptions struct {
	// traced installs the timing decorators on the method and, on a
	// networked workload, puts the counting proxy between clients and
	// server. End-to-end metrics only ever come from untraced reps.
	traced bool
	// scratch is a directory inside the checkout for the checkpoint
	// store and trace file of an ops workload.
	scratch string
	// setupOnly stops the federation where set-up ends, at the runtime's
	// InitGlobal call, so set-up can be timed many times in one run.
	setupOnly bool
	// calibMallocs and calibBytes are what one calibrate call allocates
	// (calibrationCost); the calls made inside the training stage are
	// taken out of its allocation counters.
	calibMallocs, calibBytes uint64
}

var errSetupOnly = errors.New("stopped after set-up")

// rep is everything one unit federation produced: its outputs, and the
// timestamps and counters taken at the seams around it.
//
// Every time in it is calibrated (see calib.go): scaled to the speed of
// an undisturbed sizing host by the calibrations taken around it. Only
// RawRoundMs is as the clock read it.
type rep struct {
	Setup, EnvBuild, MethodBuild, Join time.Duration

	TrainDur    time.Duration // sum of the round intervals
	RoundMs     []float64     // round i: from the end of the calibration after round i-1 to OnRound(i)
	RawRoundMs  []float64
	HostSpeed   float64 // Σ RoundMs ÷ Σ RawRoundMs: 0.8 is a host at 80 % of the sizing host's speed
	Mallocs     uint64  // MemStats.Mallocs over the training stage
	AllocBytes  uint64  // MemStats.TotalAlloc over the training stage
	Personalize time.Duration

	Global    param.Vector
	Digest    uint64
	History   []fl.RoundStats
	PartAccs  []float64
	NovelAccs []float64
	Ops       opCount

	Up, Down        int64 // proxy bytes up to the last round's end, traced networked reps only
	CheckpointBytes int64 // bytes left in the checkpoint directory
	Spans           []span
}

// stageClock takes the training stage's timestamps and allocation
// counters from the two seams that bracket it: InitGlobal, which both
// runtimes call once set-up is over (the simulator first thing in Run,
// the server once every client has joined), and OnRound. At both it
// also calibrates the host, outside every timed interval: round i runs
// from starts[i] to ends[i], between calib[i] and calib[i+1].
type stageClock struct {
	rounds        int
	setupOnly     bool
	setupEnd      time.Time
	starts, ends  []time.Time
	calib         []float64 // ms
	before, after runtime.MemStats
}

func newStageClock(rounds int, setupOnly bool) *stageClock {
	return &stageClock{
		rounds: rounds, setupOnly: setupOnly,
		starts: make([]time.Time, 0, rounds+1), ends: make([]time.Time, 0, rounds),
		calib: make([]float64, 0, rounds+1),
	}
}

func (c *stageClock) wrapInit(inner func(*rand.Rand) (param.Vector, error)) func(*rand.Rand) (param.Vector, error) {
	return func(rng *rand.Rand) (param.Vector, error) {
		c.setupEnd = time.Now()
		c.calib = append(c.calib, ms(calibrate()))
		if c.setupOnly {
			return nil, errSetupOnly
		}
		runtime.ReadMemStats(&c.before)
		c.starts = append(c.starts, time.Now())
		return inner(rng)
	}
}

func (c *stageClock) onRound(fl.RoundStats) {
	c.ends = append(c.ends, time.Now())
	if len(c.ends) == c.rounds {
		runtime.ReadMemStats(&c.after)
	}
	c.calib = append(c.calib, ms(calibrate()))
	c.starts = append(c.starts, time.Now())
}

// rawRoundMs are the round intervals as the clock read them.
func (c *stageClock) rawRoundMs() []float64 {
	out := make([]float64, len(c.ends))
	for i, e := range c.ends {
		out[i] = ms(e.Sub(c.starts[i]))
	}
	return out
}

// digest is the FNV-64a hash of a vector's IEEE-754 bits: two federations
// agree on it only if they did the same arithmetic in the same order.
func digest(v param.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// runRep builds a fresh world from seed and runs one unit federation of
// w on it: training stage, then personalization of participants and of
// the novel clients.
func runRep(ctx context.Context, w workload, seed int64, opt repOptions) (*rep, error) {
	preCalib := ms(calibrate())
	t0 := time.Now()
	wd, err := buildWorld(w, seed)
	if err != nil {
		return nil, err
	}
	r := &rep{EnvBuild: wd.envDur, MethodBuild: wd.buildDur}
	m := wd.method
	var tr *tracer
	if opt.traced {
		tr = newTracer()
		m = traceMethod(m, tr)
	}
	clock := newStageClock(w.rounds, opt.setupOnly)

	if w.net {
		err = runNet(ctx, w, wd, m, seed, opt, tr, clock, r)
	} else {
		err = runSim(ctx, w, wd, m, seed, clock, r)
	}
	if err != nil && !errors.Is(err, errSetupOnly) {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// Set-up ran between the calibration before it and the one at the
	// InitGlobal seam.
	setupSpeed := ms(calibNominal) / ((preCalib + clock.calib[0]) / 2)
	for _, d := range []*time.Duration{&r.EnvBuild, &r.MethodBuild, &r.Join} {
		*d = scaleDuration(*d, setupSpeed)
	}
	r.Setup = scaleDuration(clock.setupEnd.Sub(t0), setupSpeed)
	if opt.setupOnly {
		return r, nil
	}
	r.RawRoundMs = clock.rawRoundMs()
	r.RoundMs = calibrated(r.RawRoundMs, clock.calib, calibWindow, ms(calibNominal))
	var rawSum, sum float64
	for i, x := range r.RoundMs {
		sum += x
		rawSum += r.RawRoundMs[i]
	}
	r.HostSpeed = sum / rawSum
	r.TrainDur = time.Duration(sum * float64(time.Millisecond))
	// Every round but the last is followed by a calibration inside the
	// two MemStats readings.
	inside := uint64(w.rounds - 1)
	r.Mallocs = clock.after.Mallocs - clock.before.Mallocs - inside*opt.calibMallocs
	r.AllocBytes = clock.after.TotalAlloc - clock.before.TotalAlloc - inside*opt.calibBytes

	// Novel clients never take part in training; both runtimes leave
	// their personalization to the caller (paper §V-D).
	pStart := time.Now()
	novel, nerr := fl.PersonalizeAll(ctx, seed, m, wd.env.Novel, r.Global, pinParallelism)
	r.Personalize += time.Since(pStart)
	if nerr == nil {
		r.NovelAccs = novel
	}
	r.Personalize = scaleDuration(r.Personalize, r.HostSpeed)
	r.Digest = digest(r.Global)
	r.Ops = countOps(r.History, len(wd.env.Participants), len(r.PartAccs), len(wd.env.Novel), len(r.NovelAccs))
	if tr != nil {
		r.Spans = linkSpans(tr, t0, clock, r.HostSpeed)
	}
	return r, nil
}

func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func runSim(ctx context.Context, w workload, wd *world, m *fl.Method, seed int64, clock *stageClock, r *rep) error {
	method := *m
	method.InitGlobal = clock.wrapInit(m.InitGlobal)
	sim, err := fl.NewSimulator(fl.SimConfig{
		Rounds:          w.rounds,
		ClientsPerRound: w.perRound,
		Seed:            seed,
		Parallelism:     pinParallelism,
		KernelWorkers:   pinKernelWorkers,
		OnRound:         clock.onRound,
	}, &method, wd.env.Participants)
	if err != nil {
		return err
	}
	global, history, err := sim.Run(ctx)
	if err != nil {
		return err
	}
	r.Global, r.History = global, history
	pStart := time.Now()
	accs, err := fl.PersonalizeAll(ctx, seed, m, wd.env.Participants, global, pinParallelism)
	r.Personalize = time.Since(pStart)
	if err == nil {
		r.PartAccs = accs
	}
	return nil
}

func runNet(ctx context.Context, w workload, wd *world, m *fl.Method, seed int64, opt repOptions, tr *tracer, clock *stageClock, r *rep) error {
	cfg := flnet.ServerConfig{
		Addr:            "127.0.0.1:0",
		NumClients:      len(wd.env.Participants),
		Rounds:          w.rounds,
		ClientsPerRound: w.perRound,
		Seed:            seed,
		Aggregator:      m.Aggregator,
		InitGlobal:      clock.wrapInit(m.InitGlobal),
		OnRound:         clock.onRound,
	}
	var ckptDir string
	if w.ops {
		if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(opt.scratch, "rep-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckptDir = filepath.Join(dir, "ckpt")
		ckpt, err := store.Open(ckptDir)
		if err != nil {
			return err
		}
		ckpt.SetIncremental(true)
		sink, err := trace.OpenFile(filepath.Join(dir, "trace.jsonl"), trace.FileOptions{Truncate: true})
		if err != nil {
			return err
		}
		rec := trace.New(sink, trace.Config{})
		defer rec.Close()
		cfg.OnCheckpoint = ckpt.SaveHook(store.Meta{Seed: seed, Fingerprint: store.Fingerprint("bench", w.name), Runtime: "server"}, nil)
		if tr != nil {
			cfg.OnCheckpoint = traceCheckpoint(cfg.OnCheckpoint, tr)
		}
		cfg.Obs = obs.NewRegistry()
		cfg.Recorder = rec
		cfg.Health = health.NewMonitor(nil)
	}
	// The proxy can only start once the server listens, but the server
	// takes its callbacks at construction: the callback reads the
	// variable, which is set before any client can dial.
	var proxy *countingProxy
	if opt.traced {
		// The training stage's traffic only: personalization ships the
		// global to every client once more, which is not a round's cost.
		cfg.OnRound = func(st fl.RoundStats) {
			clock.onRound(st)
			if st.Round == w.rounds-1 {
				r.Up, r.Down = proxy.up.Load(), proxy.down.Load()
			}
		}
	}
	srv, err := flnet.NewServer(cfg)
	if err != nil {
		return err
	}
	dialAddr := srv.Addr().String()
	if opt.traced {
		if proxy, err = startProxy(dialAddr); err != nil {
			return err
		}
		dialAddr = proxy.addr()
	}
	// A failed server takes its clients down by closing their sockets;
	// canceling as well releases any that is between two reads. After a
	// clean run the clients leave on the server's shutdown message.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	dialStart := time.Now()
	var wg sync.WaitGroup
	clientErrs := make([]error, len(wd.env.Participants))
	for id, c := range wd.env.Participants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientErrs[id] = flnet.RunClient(ctx, flnet.ClientConfig{
				Addr: dialAddr, ClientID: id, Data: c,
				Trainer: m.Trainer, Personalizer: m.Personalizer, Seed: seed,
			})
		}()
	}
	res, err := srv.Run(ctx)
	runEnd := time.Now()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if proxy != nil {
		proxy.Close()
	}
	if err != nil {
		return err
	}
	if cerr := errors.Join(clientErrs...); cerr != nil {
		return fmt.Errorf("client: %w", cerr)
	}
	r.Join = clock.setupEnd.Sub(dialStart)
	r.Global, r.History = res.Global, res.History
	// After the last round's calibration the server drains, personalizes
	// every client and shuts them down.
	r.Personalize = runEnd.Sub(clock.starts[len(clock.ends)])
	for id := range wd.env.Participants {
		if acc, ok := res.Accuracies[id]; ok {
			r.PartAccs = append(r.PartAccs, acc)
		}
	}
	if ckptDir != "" {
		r.CheckpointBytes = dirBytes(ckptDir)
	}
	return nil
}

func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// opCount is the benchmark's failure accounting. An operation is one
// sampled client-round or one personalization; it failed if the client
// was sampled but its update was not aggregated, or if no accuracy came
// back.
type opCount struct{ Attempted, Failed int }

func (o opCount) add(p opCount) opCount {
	return opCount{o.Attempted + p.Attempted, o.Failed + p.Failed}
}

func (o opCount) failRate() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

func countOps(history []fl.RoundStats, participants, partAccs, novel, novelAccs int) opCount {
	var o opCount
	for _, h := range history {
		o.Attempted += len(h.Participants)
		if h.Responders != nil {
			o.Failed += len(h.Participants) - len(h.Responders)
		}
	}
	o.Attempted += participants + novel
	o.Failed += (participants - partAccs) + (novel - novelAccs)
	return o
}

// plannedOps is the client-rounds one unit federation plans. A run that
// dies is charged with them, all failed: how many more it would have
// attempted is not known from outside.
func plannedOps(w workload) opCount {
	n := w.rounds * w.perRound
	return opCount{Attempted: n, Failed: n}
}
