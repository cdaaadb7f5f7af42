package main

// The delta harness (-exp delta) is the reproducible perf gate for the
// update plane: it measures (a) per-message wire bytes for XOR-delta
// compressed train results against the dense form of the same message —
// both as flnet's v3 wire frames them (a gob header; dense vectors as raw
// 8-byte-per-element frames) — on synthetic update patterns and on a real
// method's training trajectory, and (b) serial versus shard-parallel
// aggregation timings, and emits BENCH_delta.json so both trajectories
// are tracked in-repo. The JSON schema is validated by the cmd smoke
// tests.

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

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/flnet"
	"calibre/internal/param"
	"calibre/internal/tensor"
)

// DeltaBenchSchema identifies the BENCH_delta.json layout.
// v2: sizes are v3 wire messages (v1 measured the dense baseline as a gob
// []float64, ≈9 bytes per element, which nothing sends any more).
const DeltaBenchSchema = "calibre/bench-delta/v2"

// DeltaBenchFile is the top-level layout of BENCH_delta.json.
type DeltaBenchFile struct {
	Schema     string             `json:"schema"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMaxProcs int                `json:"gomaxprocs"`
	Workers    int                `json:"workers"`
	Note       string             `json:"note,omitempty"`
	Wire       []DeltaWireRecord  `json:"wire"`
	Rounds     []DeltaRoundRecord `json:"rounds"`
	Aggregate  []DeltaAggRecord   `json:"aggregation"`
}

// DeltaWireRecord measures one synthetic update pattern through the wire:
// steady-state bytes per train-result message, dense vs delta, plus
// codec throughput. ShipsDelta reports the sender-side fallback decision
// (a delta no smaller than the dense form ships dense), and WireBytes is
// what the protocol actually puts on the wire after it.
type DeltaWireRecord struct {
	Pattern     string  `json:"pattern"`
	Elems       int     `json:"elems"`
	DenseBytes  int     `json:"dense_bytes_msg"`
	DeltaBytes  int     `json:"delta_bytes_msg"`
	DeltaBits   int     `json:"delta_payload_bytes"`
	ShipsDelta  bool    `json:"ships_delta"`
	WireBytes   int     `json:"wire_bytes_msg"`
	Ratio       float64 `json:"dense_over_wire"`
	EncNsOp     int64   `json:"delta_encode_ns_op"`
	DecNsOp     int64   `json:"delta_decode_ns_op"`
	ChangedFrac float64 `json:"changed_frac"`
}

// DeltaRoundRecord is one round of a real method's federation: total
// uplink bytes shipping every update dense versus the delta wire.
type DeltaRoundRecord struct {
	Method     string  `json:"method"`
	Round      int     `json:"round"`
	Updates    int     `json:"updates"`
	Elems      int     `json:"elems"`
	DenseBytes int64   `json:"dense_bytes_round"`
	WireBytes  int64   `json:"wire_bytes_round"`
	Ratio      float64 `json:"dense_over_wire"`
}

// DeltaAggRecord times one aggregator serial (one pool worker) versus
// shard-parallel on the configured pool.
type DeltaAggRecord struct {
	Aggregator string  `json:"aggregator"`
	Elems      int     `json:"elems"`
	Updates    int     `json:"updates"`
	SerialNsOp int64   `json:"serial_ns_op"`
	ShardNsOp  int64   `json:"sharded_ns_op"`
	Speedup    float64 `json:"speedup_vs_serial"`
}

// steadyBytes reports the steady-state size of one envelope on a
// long-lived connection, after the type descriptors have traveled once —
// exactly what each per-round train-result costs in flnet.
func steadyBytes(env *flnet.Envelope) int {
	n, err := flnet.WireSize(env)
	if err != nil {
		panic(err)
	}
	return n
}

func trainResultEnvelope(u *fl.Update) *flnet.Envelope {
	return &flnet.Envelope{Type: flnet.MsgTrainResult, ClientID: u.ClientID, Round: 1, Update: u}
}

// wireBytesFor measures what a client ships for update u against ref: the
// delta form when it is smaller, the dense form otherwise.
func wireBytesFor(ref, v param.Vector) (dense, deltaMsg, wire int, d *param.Delta) {
	dense = steadyBytes(trainResultEnvelope(&fl.Update{ClientID: 1, Params: v, NumSamples: 10}))
	d, err := param.Diff(ref, v)
	if err != nil {
		panic(err)
	}
	deltaMsg = steadyBytes(trainResultEnvelope(&fl.Update{ClientID: 1, Delta: d, NumSamples: 10}))
	wire = dense
	if d.Size() < d.DenseSize() {
		wire = deltaMsg
	}
	return dense, deltaMsg, wire, d
}

// wirePatterns builds the synthetic update shapes the wire sees in
// practice: SGD steps (every weight nudged), sparse and partial-exchange
// updates (zero runs), an unchanged vector, and the adversarial
// full-entropy case the sender must fall back to dense on.
func wirePatterns(n int) []struct {
	name   string
	ref, v param.Vector
} {
	rng := rand.New(rand.NewSource(42))
	ref := make(param.Vector, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	sgd := ref.Clone()
	for i := range sgd {
		sgd[i] += 1e-3 * rng.NormFloat64()
	}
	sparse := ref.Clone()
	for i := 0; i < n; i += 20 {
		sparse[i] = rng.NormFloat64()
	}
	head := ref.Clone()
	for i := 0; i < n/10; i++ {
		head[i] += 1e-3 * rng.NormFloat64()
	}
	random := make(param.Vector, n)
	for i := range random {
		random[i] = math.Float64frombits(rng.Uint64())
	}
	return []struct {
		name   string
		ref, v param.Vector
	}{
		{"sgd-step", ref, sgd},
		{"sparse-5pct", ref, sparse},
		{"head-10pct", ref, head},
		{"unchanged", ref, ref.Clone()},
		{"random-worst-case", ref, random},
	}
}

func benchWire(minTime time.Duration, n int) []DeltaWireRecord {
	var out []DeltaWireRecord
	for _, p := range wirePatterns(n) {
		dense, deltaMsg, wire, d := wireBytesFor(p.ref, p.v)
		encNs, _ := measure(minTime, func() {
			if _, err := param.Diff(p.ref, p.v); err != nil {
				panic(err)
			}
		})
		decNs, _ := measure(minTime, func() {
			if _, err := d.Apply(p.ref); err != nil {
				panic(err)
			}
		})
		changed, err := d.Changed()
		if err != nil {
			panic(err)
		}
		out = append(out, DeltaWireRecord{
			Pattern:     p.name,
			Elems:       n,
			DenseBytes:  dense,
			DeltaBytes:  deltaMsg,
			DeltaBits:   d.Size(),
			ShipsDelta:  d.Size() < d.DenseSize(),
			WireBytes:   wire,
			Ratio:       float64(dense) / float64(wire),
			EncNsOp:     encNs,
			DecNsOp:     decNs,
			ChangedFrac: float64(changed) / float64(n),
		})
	}
	return out
}

// meteringAggregator wraps a method's aggregator and meters each round's
// uplink: dense messages versus the delta wire (with its dense fallback),
// on the real updates the method produces.
type meteringAggregator struct {
	inner  fl.Aggregator
	method string
	rounds []DeltaRoundRecord
}

func (m *meteringAggregator) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	rec := DeltaRoundRecord{Method: m.method, Round: len(m.rounds), Updates: len(updates), Elems: len(global)}
	for _, u := range updates {
		dense, _, wire, _ := wireBytesFor(global, u.Params)
		rec.DenseBytes += int64(dense)
		rec.WireBytes += int64(wire)
	}
	rec.Ratio = float64(rec.DenseBytes) / float64(rec.WireBytes)
	m.rounds = append(m.rounds, rec)
	return m.inner.Aggregate(global, updates)
}

// benchRealRounds runs a short real federation (calibre-simclr at smoke
// scale) and meters every round's uplink through the wire encoder.
func benchRealRounds(seed int64) ([]DeltaRoundRecord, error) {
	const methodName = "calibre-simclr"
	s, ok := experiments.Settings()["cifar10-q(2,500)"]
	if !ok {
		return nil, fmt.Errorf("setting cifar10-q(2,500) missing")
	}
	env, err := experiments.BuildEnvironment(s, experiments.Scale("smoke"), seed)
	if err != nil {
		return nil, err
	}
	m, err := experiments.BuildMethod(env, methodName)
	if err != nil {
		return nil, err
	}
	meter := &meteringAggregator{inner: m.Aggregator, method: methodName}
	m.Aggregator = meter
	perRound := 4
	if len(env.Participants) < perRound {
		perRound = len(env.Participants)
	}
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 3, ClientsPerRound: perRound, Seed: seed}, m, env.Participants)
	if err != nil {
		return nil, err
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		return nil, err
	}
	return meter.rounds, nil
}

// benchAggregation times batch aggregation serial versus shard-parallel
// on SGD-like updates.
func benchAggregation(minTime time.Duration, workers, n, nUpdates int) []DeltaAggRecord {
	rng := rand.New(rand.NewSource(3))
	global := make(param.Vector, n)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	updates := make([]*fl.Update, nUpdates)
	for k := range updates {
		v := global.Clone()
		for i := range v {
			v[i] += 1e-3 * rng.NormFloat64()
		}
		updates[k] = &fl.Update{ClientID: k, Params: v, NumSamples: 10 + k, Divergence: rng.Float64()}
	}
	var out []DeltaAggRecord
	for _, agg := range []struct {
		name string
		a    fl.Aggregator
	}{
		{"weighted-average", fl.WeightedAverage{}},
		{"divergence-weighted", &fl.DivergenceWeighted{}},
	} {
		run := func() {
			if _, err := agg.a.Aggregate(global, updates); err != nil {
				panic(err)
			}
		}
		tensor.SetWorkers(1)
		serialNs, _ := measure(minTime, run)
		tensor.SetWorkers(workers)
		shardNs, _ := measure(minTime, run)
		tensor.SetWorkers(0)
		out = append(out, DeltaAggRecord{
			Aggregator: agg.name,
			Elems:      n,
			Updates:    nUpdates,
			SerialNsOp: serialNs,
			ShardNsOp:  shardNs,
			Speedup:    float64(serialNs) / float64(shardNs),
		})
	}
	return out
}

// runDeltaBench runs the update-plane harness and writes BENCH_delta.json
// into outDir. quick shrinks per-measurement time so the harness fits in
// CI.
func runDeltaBench(outDir string, quick bool) error {
	minTime := 300 * time.Millisecond
	if quick {
		minTime = 30 * time.Millisecond
	}
	workers := tensor.Workers()
	file := DeltaBenchFile{
		Schema:     DeltaBenchSchema,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
	if file.GOMaxProcs == 1 {
		file.Note = "recorded on a single-core host: sharded aggregation cannot beat serial here; regenerate on ≥4 cores for the real speedup trajectory (wire-bytes numbers are core-count independent)"
	}
	for _, n := range []int{4_096, 65_536} {
		file.Wire = append(file.Wire, benchWire(minTime, n)...)
	}
	rounds, err := benchRealRounds(42)
	if err != nil {
		return err
	}
	file.Rounds = rounds
	file.Aggregate = benchAggregation(minTime, workers, 65_536, 10)
	file.Aggregate = append(file.Aggregate, benchAggregation(minTime, workers, 524_288, 10)...)

	fmt.Printf("delta bench: %s/%s gomaxprocs=%d workers=%d (XOR-delta wire vs dense frames; sharded vs serial aggregation)\n",
		file.GOOS, file.GOARCH, file.GOMaxProcs, file.Workers)
	fmt.Printf("%-18s %8s %12s %12s %7s %7s %12s %12s\n", "pattern", "elems", "dense B/msg", "wire B/msg", "ratio", "delta?", "enc ns/op", "dec ns/op")
	for _, r := range file.Wire {
		fmt.Printf("%-18s %8d %12d %12d %6.2fx %7v %12d %12d\n",
			r.Pattern, r.Elems, r.DenseBytes, r.WireBytes, r.Ratio, r.ShipsDelta, r.EncNsOp, r.DecNsOp)
	}
	for _, r := range file.Rounds {
		fmt.Printf("round %d (%s, %d updates × %d params): dense %d B → wire %d B (%.2fx)\n",
			r.Round, r.Method, r.Updates, r.Elems, r.DenseBytes, r.WireBytes, r.Ratio)
	}
	for _, r := range file.Aggregate {
		fmt.Printf("aggregate %-20s %8d elems × %2d updates: serial %12d ns → sharded %12d ns (%.2fx)\n",
			r.Aggregator, r.Elems, r.Updates, r.SerialNsOp, r.ShardNsOp, r.Speedup)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	path := filepath.Join(outDir, "BENCH_delta.json")
	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}
