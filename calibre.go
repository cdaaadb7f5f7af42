// Package calibre is a from-scratch Go reproduction of "Calibre: Towards
// Fair and Accurate Personalized Federated Learning with Self-Supervised
// Learning" (Chen, Su, Li — ICDCS 2024).
//
// Calibre trains a global encoder with self-supervised learning across
// federated clients, calibrates its representations with two
// client-adaptive prototype regularizers (L_n, L_p), aggregates with
// prototype-divergence weighting, and personalizes each client with a
// lightweight linear head. This package is the stable public surface over
// the internal substrates (tensor/autograd engine, synthetic datasets,
// non-i.i.d. partitioners, six SSL methods, 20+ FL baselines, an
// in-process simulator and a TCP federation runtime).
//
// Quick start:
//
//	env, _ := calibre.NewEnvironment("cifar10-q(2,500)", calibre.ScaleSmoke, 42)
//	out, _ := calibre.Run(context.Background(), env, "calibre-simclr")
//	fmt.Println(out.Participants.Summary) // mean ± std accuracy across clients
//
// Run takes any method name the `calibre` command does, the Table I and
// design-ablation variants included ("calibre-simclr[ln]",
// "calibre-simclr{fixed-k}"). Every table and figure of the paper is
// reproduced by `calibre fig -exp ID` ("fig1".."fig8", "table1",
// "design"); see README.md "Experiments" for the index.
package calibre

import (
	"context"
	"net"
	"net/http"

	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/ssl"
	"calibre/internal/sweep"
)

// Re-exported types forming the public API. The aliases point at internal
// implementations; construct them through the helpers in this package.
type (
	// Scale selects experiment size: ScaleSmoke, ScaleCI or ScalePaper.
	Scale = experiments.Scale
	// Scenario is one fully specified federation — method, setting, scale,
	// seed and the federation knobs — in the vocabulary the sweep grids,
	// the manifests and the `calibre` command line share; its Build method
	// assembles the World every runtime runs.
	Scenario = experiments.Scenario
	// World is a built Scenario: environment, method (aggregator override
	// applied) and the parsed knobs as a Federation.
	World = experiments.World
	// Federation is what a federation runs under on either runtime: the
	// quorum, straggler, availability and adversary knobs, the
	// observability planes (Obs, Recorder, Health, OnAlert) and the
	// checkpoint hooks. ServerConfig embeds it, so its fields are set on a
	// ServerConfig directly or as one value: a World's, with planes and
	// AttachCheckpoints' hooks added.
	Federation = fl.Federation
	// Checkpoints says where and how a run snapshots its round state; see
	// AttachCheckpoints.
	Checkpoints = experiments.Checkpoints
	// Environment is a materialized experiment world (data + clients).
	Environment = experiments.Environment
	// MethodOutcome is a method's accuracy results on an environment.
	MethodOutcome = experiments.MethodOutcome
	// Method bundles a trainer, aggregator and personalizer.
	Method = fl.Method
	// RoundStats reports one federated round.
	RoundStats = fl.RoundStats
	// Summary aggregates per-client accuracies (mean = performance,
	// variance = fairness).
	Summary = eval.Summary
	// ServerConfig / ClientConfig / FederationResult run FL over TCP.
	ServerConfig     = flnet.ServerConfig
	ClientConfig     = flnet.ClientConfig
	FederationResult = flnet.Result
	// Server orchestrates a TCP federation.
	Server = flnet.Server

	// SimState is a federation's complete resumable round state; both the
	// simulator and the TCP server emit it via their Federation's
	// OnCheckpoint and accept it back via its ResumeFrom. Its Global is lent
	// until the hook, or the write it defers, returns: a hook that keeps
	// the state past then clones Global.
	SimState = fl.SimState

	// SweepGrid is a declarative scenario grid: methods × settings ×
	// seeds × federation knobs, expanded into deterministic cells.
	SweepGrid = sweep.Grid
	// SweepConfig controls sweep execution: worker budgets, per-cell
	// timeouts, the resumable manifest directory and per-cell durable
	// checkpoints.
	SweepConfig = sweep.Config
	// SweepCellResult is one cell's typed outcome.
	SweepCellResult = sweep.CellResult
	// SweepResult is a completed sweep: every cell outcome in canonical
	// order.
	SweepResult = sweep.Result
	// SweepReport is the fairness-first aggregation of a sweep —
	// cross-seed aggregates with variance-of-variance, variance reduction
	// vs the grid baseline and per-scenario Pareto fronts — renderable as
	// CSV and markdown.
	SweepReport = sweep.Report

	// MetricsRegistry is the live observability plane: attach one to
	// Federation.Obs or SweepConfig.Obs and every round
	// is counted (responders, stragglers, uplink bytes,
	// per-client participation) without perturbing results — a run with a
	// registry attached is bit-identical to one without. Snapshot is
	// race-free and never blocks training; ServeMetrics exposes it over
	// HTTP.
	MetricsRegistry = obs.Registry
	// HealthConfig selects and tunes the streaming anomaly detectors
	// (loss divergence/plateau, NaN/Inf, fairness drift, per-client
	// update-norm outliers, quorum erosion); build one with
	// ParseHealthRules.
	HealthConfig = health.Config
	// HealthMonitor is the streaming detector engine: attach one to
	// Federation.Health (sweeps instead take a
	// *HealthConfig on SweepConfig.Health and build one fresh monitor
	// per cell) and every completed round is judged without perturbing
	// results — a run with a monitor attached is bit-identical to one
	// without, and detectors are pure functions of the round stream, so
	// two identical runs yield bit-identical diagnoses.
	HealthMonitor = health.Monitor
	// HealthAlert is one raised finding (rule, severity, round, client).
	HealthAlert = health.Alert
)

// Counter names for the Counters of a MetricsRegistry snapshot (the full
// set is in internal/obs).
const (
	MetricRounds          = obs.CounterRounds
	MetricUplinkWireBytes = obs.CounterUplinkWireBytes
)

// Experiment scales.
const (
	ScaleSmoke = experiments.ScaleSmoke
	ScaleCI    = experiments.ScaleCI
	ScalePaper = experiments.ScalePaper
)

// NewEnvironment builds the experiment world for a named setting; an
// unknown name is an error that lists the valid ones.
func NewEnvironment(setting string, scale Scale, seed int64) (*Environment, error) {
	return Scenario{Setting: setting, Scale: scale, Seed: seed}.Environment()
}

// Run trains a method, named as every command names it, on the environment
// (training stage) and personalizes all participating and novel clients
// (personalization stage). An unknown name is an error that lists the valid
// ones.
func Run(ctx context.Context, env *Environment, methodName string) (*MethodOutcome, error) {
	return experiments.RunMethod(ctx, env, methodName)
}

// RunResumable is Run with durability: round state is snapshotted into dir
// every `every` rounds (≤0 means every round), and a rerun after a crash
// resumes from the latest snapshot, bit-identical to a run that never
// stopped. Snapshots are fingerprint-bound to the (method, setting, seed,
// population) combination, and carry the method's client table, so methods
// whose clients keep cross-round state resume too; inspect them with
// `calibre ckpt`. scaffold and scaffold-ft, whose server control variate a
// snapshot does not hold, are refused with fl.ErrStatefulResume — use Run
// for those.
func RunResumable(ctx context.Context, env *Environment, methodName, dir string, every int) (*MethodOutcome, error) {
	return experiments.RunMethodResumable(ctx, env, methodName, dir, every)
}

// AttachCheckpoints opens the checkpoint directory c names (atomic
// versioned snapshot files, CRC-validated, crash fallback to the previous
// good version) and sets the checkpoint hooks of f, the Federation of a
// run of m: the OnCheckpoint hook and stride and — with c.Resume — the
// ResumeFrom state of the latest matching snapshot, whose store version
// the result reports. It is what RunResumable, every sweep cell and
// `calibre serve` use. With
// Runtime "server", a method with a client table (Method.Clients: ditto,
// fedper, fedema, calibre-byol, …) keeps its rows in the client processes,
// not in the server's snapshots, so Resume is refused with
// fl.ErrStatefulResume, as it is for scaffold on any runtime.
func AttachCheckpoints(m *Method, c Checkpoints, f *Federation) (*experiments.Attached, error) {
	return experiments.AttachCheckpoints(m, c, f)
}

// RunSweep executes a declarative scenario grid — every (method,
// setting, seed, knob) cell as one scheduled unit — and returns the
// per-cell outcomes. With cfg.Dir set the sweep is durable: an atomic
// manifest records each completed cell, a killed sweep resumes with
// cfg.Resume (skipping finished cells, byte-identical final report), and
// cfg.CheckpointEvery threads per-cell round checkpoints through the
// resume machinery. Results are bit-identical at any cfg.Workers count.
// `calibre sweep` wraps this (plan/run/resume/report).
func RunSweep(ctx context.Context, grid *SweepGrid, cfg SweepConfig) (*SweepResult, error) {
	return sweep.Run(ctx, grid, cfg)
}

// NewSweepReport aggregates a sweep result into its fairness-first
// report (WriteMarkdown, WriteCellsCSV, WriteMethodsCSV).
func NewSweepReport(res *SweepResult) *SweepReport { return sweep.NewReport(res) }

// Summarize computes the mean/variance/std summary of per-client
// accuracies.
func Summarize(accs []float64) Summary { return eval.Summarize(accs) }

// SSLMethodNames lists the supported self-supervised flavors.
func SSLMethodNames() []string { return ssl.MethodNames() }

// NewMetricsRegistry builds an empty observability registry; attach it
// via Federation.Obs or SweepConfig.Obs and serve it
// with ServeMetrics. All registry methods are nil-receiver-safe, so
// instrumented code never needs to check whether metrics are enabled.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ParseHealthRules builds a HealthConfig from the textual rule spec the
// CLIs take ("default", "all", or a list like
// "non-finite,norm-z(3.5,2)"); Config.Rules round-trips the canonical
// form.
func ParseHealthRules(spec string) (HealthConfig, error) { return health.ParseRules(spec) }

// NewHealthMonitor builds a streaming health monitor; attach it via
// Federation.Health (for sweeps, set the config on
// SweepConfig.Health instead — one fresh monitor per cell), read the
// verdict with its Diagnosis method, or serve it alongside the metrics
// endpoints (calibre serve -health, calibre sweep run -health). `calibre
// doctor` reaches the same verdict live over /metrics or offline from a
// flight-recorder trace.
func NewHealthMonitor(cfg *HealthConfig) *HealthMonitor { return health.NewMonitor(cfg) }

// ServeMetrics binds addr (port 0 picks a free one) and serves the
// registry read-only over HTTP — /metrics as a JSON snapshot,
// /metrics/prom as Prometheus text — exactly what the `-metrics-addr` flag
// of `calibre serve` and `calibre sweep run` does, and what `calibre sweep
// watch` polls. Tear down with the returned server's Shutdown.
func ServeMetrics(addr string, reg *MetricsRegistry) (*http.Server, net.Addr, error) {
	return obs.Serve(addr, reg)
}

// NewServer starts a TCP federation server (see `calibre serve`).
func NewServer(cfg ServerConfig) (*Server, error) { return flnet.NewServer(cfg) }

// RunClient joins a TCP federation as one client (see `calibre join`).
func RunClient(ctx context.Context, cfg ClientConfig) error { return flnet.RunClient(ctx, cfg) }
