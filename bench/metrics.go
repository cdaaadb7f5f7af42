package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric of the benchmark. Bound is the share of
// the baseline's median by which an end-to-end metric may get worse
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures; the driver passes it back as
// --seconds.
const runSeconds = 15

// endToEnd are the numbers a user of a federation sees: how long a round
// takes, how many fit in a second, what it costs in memory, and how long
// it takes to get going. They are measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_p90", "ms", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"allocs_per_round", "count", "lower", 0.03},
	{"alloc_mb_per_round", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are measured in the traced run: from the spans the decorators
// record, from the counting proxy, and from the probes. The eval.*
// quality numbers live here too: they are pure functions of (workload,
// seed), so across the seeds of an acceptance run they spread far wider
// than any bound, while across two commits at one seed they must not
// move at all — which -compare checks.
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.op_fail_rate", Unit: "ratio", Better: "lower"},
	{Name: "eval.mean_acc", Unit: "%", Better: "higher"},
	{Name: "eval.acc_var", Unit: "ratio", Better: "lower"},
	{Name: "eval.bottom10_acc", Unit: "%", Better: "higher"},
	{Name: "eval.novel_mean_acc", Unit: "%", Better: "higher"},
	{Name: "fl.train_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fl.train_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "fl.train_calls", Unit: "count", Better: "lower"},
	{Name: "fl.train_busy_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "fl.train_cover_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "fl.dispatch_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "fl.train_skew", Unit: "ratio", Better: "lower"},
	{Name: "fl.aggregate_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "fl.aggregate_calls", Unit: "count", Better: "lower"},
	{Name: "fl.round_self_ms", Unit: "ms", Better: "lower"},
	{Name: "flnet.round_self_ms", Unit: "ms", Better: "lower"},
	{Name: "flnet.self_share", Unit: "ratio", Better: "lower"},
	{Name: "flnet.uplink_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "flnet.downlink_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "flnet.join_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "store.checkpoint_calls", Unit: "count", Better: "lower"},
	{Name: "fl.personalize_ms_per_client", Unit: "ms", Better: "lower"},
	{Name: "fl.personalize_s", Unit: "s", Better: "lower"},
	{Name: "experiments.build_environment_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.build_method_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.matmul_transa_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.matmul_transb_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "nn.step_fwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.step_bwd_us", Unit: "us", Better: "lower"},
	{Name: "nn.step_opt_us", Unit: "us", Better: "lower"},
	{Name: "ssl.train_ms", Unit: "ms", Better: "lower"},
	{Name: "kmeans.run_us", Unit: "us", Better: "lower"},
	{Name: "kmeans.silhouette_us", Unit: "us", Better: "lower"},
	{Name: "core.select_k_us", Unit: "us", Better: "lower"},
	{Name: "core.divergence_us", Unit: "us", Better: "lower"},
	{Name: "param.diff_us", Unit: "us", Better: "lower"},
	{Name: "param.apply_us", Unit: "us", Better: "lower"},
	{Name: "param.delta_ratio", Unit: "ratio", Better: "lower"},
	{Name: "store.encode_us", Unit: "us", Better: "lower"},
	{Name: "store.decode_us", Unit: "us", Better: "lower"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.observe_round_us", Unit: "us", Better: "lower"},
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.flush_us", Unit: "us", Better: "lower"},
	{Name: "health.observe_round_us", Unit: "us", Better: "lower"},
	{Name: "planes.overhead_us_per_round", Unit: "us", Better: "lower"},
}

// exactMetrics repeat bit for bit for one (workload, seed) while the
// arithmetic and the wire format are left alone; -compare treats any
// movement in them as a change that needs its own justification.
var exactMetrics = map[string]bool{
	"eval.mean_acc": true, "eval.acc_var": true, "eval.bottom10_acc": true, "eval.novel_mean_acc": true,
	"bench.op_fail_rate": true, "fl.train_calls": true, "fl.aggregate_calls": true, "store.checkpoint_calls": true,
}

// absoluteFloor keeps a relative bound from firing on a difference too
// small to measure: set-up is a few milliseconds on the simulator
// workloads, where a quarter of it is scheduler noise.
var absoluteFloor = map[string]float64{"setup_s": 0.020}

// benchSpec is the layout of BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: the field is left out
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec builds BENCHMARK.json's content from the tables above, so the
// file and the program cannot name different metrics.
func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDef{w.name, w.why})
	}
	return s
}

func marshalSpec() ([]byte, error) {
	buf, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// loadSpec reads a BENCHMARK.json; -compare takes its bounds from the
// file, not from this program's tables, so an old results file can be
// judged by the bounds it was recorded under.
func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
