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
// Every table and figure of the paper is reproducible via RunExperiment
// ("fig1".."fig8", "table1"); see README.md "Experiments" for the index.
package calibre

import (
	"context"
	"math/rand"
	"net"
	"net/http"

	"calibre/internal/baselines"
	"calibre/internal/data"
	"calibre/internal/eval"
	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/partition"
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
	// applied) and the parsed straggler/adversary/availability knobs.
	World = experiments.World
	// Checkpoints says where and how a run snapshots its round state; see
	// AttachCheckpoints.
	Checkpoints = experiments.Checkpoints
	// Environment is a materialized experiment world (data + clients).
	Environment = experiments.Environment
	// MethodOutcome is a method's accuracy results on an environment.
	MethodOutcome = experiments.MethodOutcome
	// Report is a full experiment report (one paper figure/table).
	Report = experiments.Report
	// EmbeddingResult quantifies representation geometry (t-SNE figures).
	EmbeddingResult = experiments.EmbeddingResult
	// Setting describes a dataset + non-i.i.d. partition combination.
	Setting = experiments.Setting

	// Method bundles a trainer, aggregator and personalizer.
	Method = fl.Method
	// RoundStats reports one federated round.
	RoundStats = fl.RoundStats
	// Update is a client's per-round result; Params is the whole updated
	// vector, which is also what travels the wire.
	Update = fl.Update
	// Vector is the typed model parameter vector the update plane
	// exchanges (internal/param).
	Vector = param.Vector

	// Client is one participant's local data partition.
	Client = partition.Client
	// Dataset is an in-memory (partially) labeled dataset.
	Dataset = data.Dataset
	// DataSpec parameterizes the synthetic dataset generator.
	DataSpec = data.Spec

	// Summary aggregates per-client accuracies (mean = performance,
	// variance = fairness).
	Summary = eval.Summary
	// MethodResult pairs a method with its summary and raw accuracies.
	MethodResult = eval.MethodResult

	// ServerConfig / ClientConfig / FederationResult run FL over TCP.
	ServerConfig     = flnet.ServerConfig
	ClientConfig     = flnet.ClientConfig
	FederationResult = flnet.Result
	// Server orchestrates a TCP federation.
	Server = flnet.Server

	// SimState is a federation's complete resumable round state; both the
	// simulator (SimConfig) and the TCP server (ServerConfig) emit it via
	// OnCheckpoint and accept it back via ResumeFrom.
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
	// SimConfig.Obs, ServerConfig.Obs or SweepConfig.Obs and every round
	// is counted (responders, stragglers, uplink bytes,
	// per-client participation) without perturbing results — a run with a
	// registry attached is bit-identical to one without. Snapshot is
	// race-free and never blocks training; ServeMetrics exposes it over
	// HTTP.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is one consistent point-in-time view of a
	// MetricsRegistry (counters, gauges, recent round samples,
	// participation table); its WriteProm renders Prometheus text.
	MetricsSnapshot = obs.Snapshot
	// MetricsRoundSample is one federated round as the metrics plane saw
	// it.
	MetricsRoundSample = obs.RoundSample

	// HealthConfig selects and tunes the streaming anomaly detectors
	// (loss divergence/plateau, NaN/Inf, fairness drift, per-client
	// update-norm outliers, quorum erosion); build one with
	// DefaultHealthConfig or ParseHealthRules.
	HealthConfig = health.Config
	// HealthMonitor is the streaming detector engine: attach one to
	// SimConfig.Health or ServerConfig.Health (sweeps instead take a
	// *HealthConfig on SweepConfig.Health and build one fresh monitor
	// per cell) and every completed round is judged without perturbing
	// results — a run with a monitor attached is bit-identical to one
	// without, and detectors are pure functions of the round stream, so
	// two identical runs yield bit-identical diagnoses.
	HealthMonitor = health.Monitor
	// HealthDiagnosis is a monitor's full verdict — alerts in raise
	// order, suspected-adversary IDs, per-client scores ranked least
	// healthy first. Render with WriteText or serve it via /healthz.
	HealthDiagnosis = health.Diagnosis
	// HealthAlert is one raised finding (rule, severity, round, client).
	HealthAlert = health.Alert
)

// Counter names for MetricsSnapshot.Counters lookups (the full set is in
// internal/obs).
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

// ExperimentIDs lists the reproducible paper artifacts:
// fig1..fig8 and table1.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one paper figure/table end to end.
func RunExperiment(ctx context.Context, id string, scale Scale, seed int64) (*Report, error) {
	return experiments.Run(ctx, id, scale, seed)
}

// SettingNames lists the paper's dataset/partition settings.
func SettingNames() []string { return experiments.SettingNames() }

// NewEnvironment builds the experiment world for a named setting; an
// unknown name is an error that lists the valid ones.
func NewEnvironment(setting string, scale Scale, seed int64) (*Environment, error) {
	return Scenario{Setting: setting, Scale: scale, Seed: seed}.Environment()
}

// MethodNames lists every runnable method: the paper's baselines, the
// pFL-SSL family and all Calibre variants.
func MethodNames() []string { return baselines.MethodNames() }

// BuildMethod constructs a registered method for an environment.
func BuildMethod(env *Environment, name string) (*Method, error) {
	return experiments.BuildMethod(env, name)
}

// Run trains a registered method on the environment (training stage) and
// personalizes all participating and novel clients (personalization stage).
func Run(ctx context.Context, env *Environment, methodName string) (*MethodOutcome, error) {
	return experiments.RunMethod(ctx, env, methodName)
}

// RunCustom is Run for an externally assembled *Method (e.g. a Calibre
// ablation variant built with NewCalibreVariant).
func RunCustom(ctx context.Context, env *Environment, m *Method) (*MethodOutcome, error) {
	return experiments.RunBuiltMethod(ctx, env, m)
}

// RunResumable is Run with durability: round state is snapshotted into dir
// every `every` rounds (≤0 means every round), and a rerun after a crash
// resumes from the latest snapshot, bit-identical to a run that never
// stopped. Snapshots are fingerprint-bound to the (method, setting, seed,
// population) combination; inspect them with `calibre ckpt`. Methods
// carrying cross-round client state a snapshot cannot capture (fedema,
// fedper/fedrep/fedbabu/lg-fedavg, scaffold, apfl, ditto, and the
// byol/mocov2 SSL flavors) are refused with fl.ErrStatefulResume — use Run
// for those.
func RunResumable(ctx context.Context, env *Environment, methodName, dir string, every int) (*MethodOutcome, error) {
	return experiments.RunMethodResumable(ctx, env, methodName, dir, every)
}

// AttachCheckpoints opens the checkpoint directory c names (atomic
// versioned snapshot files, CRC-validated, crash fallback to the previous
// good version) and returns the wiring for a federation of m: the
// OnCheckpoint hook and stride to set on a ServerConfig, and — with
// c.Resume — the ResumeFrom state of the latest matching snapshot. It is
// what RunResumable, every sweep cell and `calibre serve` use.
func AttachCheckpoints(m *Method, c Checkpoints) (*experiments.Attached, error) {
	return experiments.AttachCheckpoints(m, c)
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

// LoadSweepGrid reads a declarative sweep grid from a JSON file.
func LoadSweepGrid(path string) (*SweepGrid, error) { return sweep.LoadGrid(path) }

// NewSweepReport aggregates a sweep result into its fairness-first
// report (WriteMarkdown, WriteCellsCSV, WriteMethodsCSV).
func NewSweepReport(res *SweepResult) *SweepReport { return sweep.NewReport(res) }

// NewCalibreVariant builds a Calibre method with explicit regularizer
// switches (the Table I ablation knobs) on any supported SSL flavor
// (simclr, byol, simsiam, mocov2, swav, smog).
func NewCalibreVariant(env *Environment, sslName string, useLn, useLp bool) (*Method, error) {
	return experiments.AblationVariant(env, sslName, useLn, useLp)
}

// Summarize computes the mean/variance/std summary of per-client
// accuracies.
func Summarize(accs []float64) Summary { return eval.Summarize(accs) }

// Improvement returns a's mean-accuracy margin over b in percentage points.
func Improvement(a, b Summary) float64 { return eval.Improvement(a, b) }

// VarianceReduction returns a's relative variance reduction vs b in
// percent (positive = fairer).
func VarianceReduction(a, b Summary) float64 { return eval.VarianceReduction(a, b) }

// SSLMethodNames lists the supported self-supervised flavors.
func SSLMethodNames() []string { return ssl.MethodNames() }

// NewMetricsRegistry builds an empty observability registry; attach it
// via SimConfig.Obs / ServerConfig.Obs / SweepConfig.Obs and serve it
// with ServeMetrics. All registry methods are nil-receiver-safe, so
// instrumented code never needs to check whether metrics are enabled.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultHealthConfig enables every streaming anomaly detector at its
// documented default thresholds (see internal/health).
func DefaultHealthConfig() HealthConfig { return health.DefaultConfig() }

// ParseHealthRules builds a HealthConfig from the textual rule spec the
// CLIs take ("default", "all", or a list like
// "non-finite,norm-z(3.5,2)"); Config.Rules round-trips the canonical
// form.
func ParseHealthRules(spec string) (HealthConfig, error) { return health.ParseRules(spec) }

// NewHealthMonitor builds a streaming health monitor; attach it via
// SimConfig.Health or ServerConfig.Health (for sweeps, set the config on
// SweepConfig.Health instead — one fresh monitor per cell), read the
// verdict with its Diagnosis method, or serve it alongside the metrics
// endpoints (calibre serve -health, calibre sweep run -health). `calibre
// doctor` reaches the same verdict live over /metrics or offline from a
// flight-recorder trace.
func NewHealthMonitor(cfg *HealthConfig) *HealthMonitor { return health.NewMonitor(cfg) }

// ServeMetrics binds addr (port 0 picks a free one) and serves the
// registry read-only over HTTP — /metrics as a JSON MetricsSnapshot,
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

// NewSyntheticDataset generates a labeled synthetic dataset from a spec
// (see CIFAR10Spec and friends) for library users who want raw data.
func NewSyntheticDataset(spec DataSpec, seed int64, perClass int) (*Dataset, error) {
	gen, err := data.NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	return gen.GenerateLabeled(rand.New(rand.NewSource(seed+1)), perClass), nil
}

// CIFAR10Spec returns the synthetic CIFAR-10 stand-in spec.
func CIFAR10Spec() DataSpec { return data.CIFAR10Spec() }

// CIFAR100Spec returns the synthetic CIFAR-100 stand-in spec.
func CIFAR100Spec() DataSpec { return data.CIFAR100Spec() }

// STL10Spec returns the synthetic STL-10 stand-in spec (pair it with an
// unlabeled pool at partition time, as the experiment harness does).
func STL10Spec() DataSpec { return data.STL10Spec() }
