package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"calibre/internal/tensor"
)

// runConfig is one run of one workload: what the driver asks for with
// --workload --seed --seconds --trace.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	quick   bool
	scratch string // directory inside the checkout for temporary files
}

// check is one output check and whether it held.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// detail is everything a run knows beyond its metrics: what it ran, on
// what, the digest of the final global vector, and each check's verdict.
type detail struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Traced        bool               `json:"traced"`
	Reps          int                `json:"reps"`
	TracedReps    int                `json:"traced_reps"`
	RoundsPerRep  int                `json:"rounds_per_rep"`
	RoundSamples  int                `json:"round_samples"`
	TailPct       float64            `json:"tail_percentile"`
	SetupSamples  int                `json:"setup_samples"`
	Params        int                `json:"params"`
	Digest        string             `json:"digest"`
	Quality       map[string]float64 `json:"quality"`
	Checks        []check            `json:"checks"`
	GoVersion     string             `json:"go"`
	GOOS          string             `json:"goos"`
	GOARCH        string             `json:"goarch"`
	NumCPU        int                `json:"num_cpu"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	KernelWorkers int                `json:"kernel_workers"`
	Parallelism   int                `json:"parallelism"`
	WallS         float64            `json:"wall_s"`
	// Times are reported calibrated (calib.go). These two say what the
	// clock read and how fast the host was: 0.8 is 80 % of the sizing
	// host's undisturbed speed.
	RawRoundMsP50 float64 `json:"raw_round_ms_p50"`
	HostSpeed     float64 `json:"host_speed"`
}

// runOutput is a finished run: the result line's content plus detail
// and, for a traced run, the spans.
type runOutput struct {
	Correct bool
	Ops     opCount
	Metrics map[string]float64
	Detail  detail
	Spans   [][]span // one slice per traced rep
}

// minRoundSamples is how many round intervals a run collects before it
// may stop, so that round_ms_p90 has minTailSamples beyond it.
const minRoundSamples = 110

// warmupRounds is the length of the discarded federations that take
// process warm-up (page faults, pool spin-up, lazily built tables) out
// of the measurement.
const warmupRounds = 3

// extraSetups is how many times set-up alone is repeated, on top of the
// set-up every rep does: set-up is a few milliseconds, so its median
// needs many samples and can afford them.
const extraSetups = 24

// runWorkload measures one workload for cfg.seconds seconds.
func runWorkload(ctx context.Context, cfg runConfig) (*runOutput, error) {
	begin := time.Now()
	runtime.GOMAXPROCS(pinGOMAXPROCS)
	tensor.SetWorkers(pinKernelWorkers)
	w := cfg.w
	opt := repOptions{scratch: cfg.scratch}
	opt.calibMallocs, opt.calibBytes = calibrationCost()

	// Warm-up doubles as the cross-runtime check: the same short
	// federation through this workload's runtime and configuration, and
	// bare through the other runtime, must end on the same global vector
	// — simulator ≡ loopback TCP, delta wire ≡ dense, instrumented ≡ bare.
	warm := w
	warm.rounds = warmupRounds
	own, err := runRep(ctx, warm, cfg.seed, opt)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	other := warm
	other.net, other.ops = !warm.net, false
	cross, err := runRep(ctx, other, cfg.seed, opt)
	if err != nil {
		return nil, fmt.Errorf("warm-up (other runtime): %w", err)
	}
	checks := []check{{Name: "sim-equals-net", OK: own.Digest == cross.Digest}}
	if !checks[0].OK {
		checks[0].Note = fmt.Sprintf("after %d rounds the workload's runtime ends on %016x, the other on %016x", warmupRounds, own.Digest, cross.Digest)
	}

	// The measured reps: each builds a fresh world and runs the whole
	// unit federation. A traced run alternates bare and decorated reps,
	// so both see the same process state and their difference is the
	// tracing overhead.
	// An untraced run goes on until round_ms_p90 has its samples; a
	// traced run reports no round percentile and only needs a pair.
	minSamples := minRoundSamples
	if cfg.quick || cfg.traced {
		minSamples = 0
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var untraced, traced []*rep
	samples := 0
	for {
		o := opt
		o.traced = cfg.traced && len(untraced) > len(traced)
		r, err := runRep(ctx, w, cfg.seed, o)
		if err != nil {
			return nil, err
		}
		if o.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
			samples += len(r.RoundMs)
		}
		paired := !cfg.traced || len(traced) == len(untraced)
		if paired && samples >= minSamples && !time.Now().Before(deadline) {
			break
		}
	}
	all := append(append([]*rep(nil), untraced...), traced...)

	setups := make([]float64, 0, len(all)+extraSetups)
	for _, r := range all {
		setups = append(setups, r.Setup.Seconds())
	}
	extra := extraSetups
	if cfg.quick {
		extra = 1
	}
	for i := 0; i < extra; i++ {
		o := opt
		o.setupOnly = true
		r, err := runRep(ctx, w, cfg.seed, o)
		if err != nil {
			return nil, fmt.Errorf("set-up only: %w", err)
		}
		setups = append(setups, r.Setup.Seconds())
	}

	first := all[0]
	repChecks, ops := checkReps(w, all)
	checks = append(checks, repChecks...)
	correct := true
	for _, c := range checks {
		correct = correct && c.OK
	}

	out := &runOutput{Correct: correct, Ops: ops}
	var roundMs []float64
	for _, r := range untraced {
		roundMs = append(roundMs, r.RoundMs...)
	}
	tail := tailPercentile(len(roundMs), 90)
	var rawRoundMs, speeds []float64
	for _, r := range all {
		rawRoundMs = append(rawRoundMs, r.RawRoundMs...)
		speeds = append(speeds, r.HostSpeed)
	}
	if cfg.traced {
		out.Metrics = layerMetrics(w, untraced, traced)
		n := 1
		if !cfg.quick {
			n = 3
		}
		before := hostCalibration()
		probes, err := runProbes(ctx, w, cfg.seed, n, first, cfg.scratch)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		scaleTimes(probes, ms(calibNominal)/((before+hostCalibration())/2))
		for k, v := range probes {
			out.Metrics[k] = v
		}
		for _, r := range traced {
			out.Spans = append(out.Spans, r.Spans)
		}
	} else {
		out.Metrics = endToEndMetrics(untraced, roundMs, tail, setups)
	}
	out.Detail = detail{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Reps: len(all), TracedReps: len(traced), RoundsPerRep: w.rounds,
		RoundSamples: len(roundMs), TailPct: tail, SetupSamples: len(setups),
		Params: len(first.Global), Digest: fmt.Sprintf("%016x", first.Digest),
		Quality: qualityMetrics(first), Checks: checks,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: pinGOMAXPROCS, KernelWorkers: pinKernelWorkers, Parallelism: pinParallelism,
		WallS: time.Since(begin).Seconds(), RawRoundMsP50: median(rawRoundMs), HostSpeed: median(speeds),
	}
	return out, nil
}

// checkReps runs the output checks that look at a run's reps, and adds
// up their operations.
func checkReps(w workload, reps []*rep) ([]check, opCount) {
	first := reps[0]
	firstQuality := qualityMetrics(first)
	var ops opCount
	agree, historyOK, finite := true, true, true
	for _, r := range reps {
		ops = ops.add(r.Ops)
		agree = agree && r.Digest == first.Digest
		for k, v := range qualityMetrics(r) {
			agree = agree && v == firstQuality[k]
		}
		historyOK = historyOK && len(r.History) == w.rounds && len(r.RoundMs) == w.rounds
		for _, h := range r.History {
			historyOK = historyOK && len(h.Participants) == w.perRound
		}
		for _, accs := range [][]float64{r.PartAccs, r.NovelAccs} {
			for _, a := range accs {
				finite = finite && a >= 0 && a <= 1 // false for NaN
			}
		}
		for _, x := range r.Global {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
	}
	note := func(ok bool, format string, args ...any) string {
		if ok {
			return ""
		}
		return fmt.Sprintf(format, args...)
	}
	return []check{
		{"reps-agree", agree, note(agree, "reps of one (workload, seed) — bare and traced — differ in final global digest or accuracies")},
		{"history-complete", historyOK, note(historyOK, "a rep's history is not exactly %d rounds of %d participants", w.rounds, w.perRound)},
		{"values-finite", finite, note(finite, "an accuracy is outside [0, 100] %% or the global vector is not finite")},
		{"no-failed-ops", ops.Failed == 0, note(ops.Failed == 0, "%d of %d operations failed", ops.Failed, ops.Attempted)},
	}, ops
}

// endToEndMetrics are an untraced run's numbers: roundMs pools the round
// intervals of reps, tail is the percentile reported as round_ms_p90.
func endToEndMetrics(reps []*rep, roundMs []float64, tail float64, setups []float64) map[string]float64 {
	var trainS float64
	var mallocs, allocBytes uint64
	for _, r := range reps {
		trainS += r.TrainDur.Seconds()
		mallocs += r.Mallocs
		allocBytes += r.AllocBytes
	}
	sorted := sortedCopy(roundMs)
	n := float64(len(roundMs))
	return map[string]float64{
		"setup_s":            median(setups),
		"round_ms_p50":       percentile(sorted, 50),
		"round_ms_p90":       percentile(sorted, tail),
		"rounds_per_s":       n / trainS,
		"allocs_per_round":   float64(mallocs) / n,
		"alloc_mb_per_round": float64(allocBytes) / n / 1e6,
		"peak_rss_mb":        peakRSSMB(),
	}
}

// hostCalibration is the median of a few calibrations: the host's speed
// around work that has no round boundaries to calibrate at.
func hostCalibration() float64 {
	v := make([]float64, 9)
	for i := range v {
		v[i] = ms(calibrate())
	}
	return median(v)
}

// scaleTimes applies a host-speed factor to the probes' results: times
// are multiplied by it, rates divided, ratios and counts left alone.
func scaleTimes(metrics map[string]float64, speed float64) {
	for _, m := range perLayer {
		if _, ok := metrics[m.Name]; !ok {
			continue
		}
		switch m.Unit {
		case "ns", "us", "ms", "s":
			metrics[m.Name] *= speed
		case "GFLOP/s":
			metrics[m.Name] /= speed
		}
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Where
// /proc is missing it falls back to what the Go runtime has obtained
// from the system, which is an upper bound of the same thing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// resultLine is the last line a run prints: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defs are the metrics this kind of run owes.
func (o *runOutput) defs() []metricDef {
	if o.Detail.Traced {
		return perLayer
	}
	return endToEnd
}

// result renders a run as its result line: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func (o *runOutput) result() (resultLine, error) {
	line := resultLine{Correct: o.Correct, Attempted: o.Ops.Attempted, Failed: o.Ops.Failed, Metrics: map[string]metricValue{}}
	for _, d := range o.defs() {
		v, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

// print writes the run for people (every metric by name with its unit,
// every check) and then the detail and result lines for programs.
func (o *runOutput) print(f *os.File) error {
	line, err := o.result()
	if err != nil {
		return err
	}
	d := o.Detail
	fmt.Fprintf(f, "# %s seed=%d traced=%v: %d reps x %d rounds (%d round samples, tail p%g), %d params, digest %s, %.1fs\n",
		d.Workload, d.Seed, d.Traced, d.Reps, d.RoundsPerRep, d.RoundSamples, d.TailPct, d.Params, d.Digest, d.WallS)
	fmt.Fprintf(f, "# times are calibrated to the sizing host; this host ran at %.2f of its speed (raw round_ms_p50 %.4g ms)\n", d.HostSpeed, d.RawRoundMsP50)
	for _, m := range o.defs() {
		fmt.Fprintf(f, "# %-36s %16.6g %s\n", m.Name, o.Metrics[m.Name], m.Unit)
	}
	for _, c := range d.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Note
		}
		fmt.Fprintf(f, "# check %-20s %s\n", c.Name, verdict)
	}
	db, err := json.Marshal(struct {
		Detail detail `json:"detail"`
	}{d})
	if err != nil {
		return err
	}
	lb, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", db, lb)
	return err
}
