// Package obs is the live observability plane for the federation
// runtimes: a stdlib-only, snapshot-consistent metrics registry that both
// the in-process simulator (fl), the TCP server (flnet) and the sweep
// scheduler (sweep) feed while they run, exported over HTTP so a long
// federation is steerable while it executes instead of only post-mortem.
//
// # Registry
//
// A Registry holds three kinds of state:
//
//   - named monotonic counters (rounds_total, uplink_wire_bytes_total, …)
//   - named gauges (round, sweep_cells_in_flight, …)
//   - named fixed-bucket latency histograms (round_latency_ns,
//     client_turnaround_ns) with nine shared nanosecond buckets from 10µs
//     to 100s plus +Inf
//   - a bounded ring of per-round samples (RoundSample: straggler/quorum
//     accounting from fl.RoundStats, uplink bytes, round
//     wall-clock), plus a per-client participation table
//
// The round ring keeps the most recent 256 samples by default — enough
// recent history for a scraper while a million-round run holds live
// memory constant. NewRegistryWithRing(n) widens or narrows the window;
// counters, histograms and the participation table are unbounded-by-name
// and unaffected by the ring size.
//
// Counter and Gauge handles are lock-free atomics once obtained, so the
// training hot path never blocks on a scraper: instrumentation costs one
// atomic add, and Snapshot takes a short mutex only to copy the ring and
// the name tables. Snapshot returns a fully consistent copy — every
// counter, gauge and sample in it was observed under one lock acquisition
// — and is safe to call from any goroutine at any rate (pinned by a
// -race test hammering Snapshot during concurrent flnet rounds).
//
// Every Registry method is nil-receiver-safe: runtimes instrument
// unconditionally and a federation without observability attached pays a
// single predictable-branch nil check. Instrumentation never perturbs
// results — a simulation with a live Registry attached is bit-identical
// to one without (pinned by a test in fl).
//
// # Endpoints
//
// Handler serves two read-only views of a Registry:
//
//	/metrics       the JSON Snapshot (counters, gauges, round ring,
//	               participation)
//	/metrics/prom  a Prometheus text-format rendering of the same
//	               snapshot (deterministic ordering, golden-tested)
//
// Serve binds a listener and serves Handler in the background; the
// `calibre serve` and `calibre sweep run` expose it behind their
// -metrics-addr flag, and `calibre sweep watch` polls the JSON view to
// render live cell/round progress. ServePprof serves the net/http/pprof
// profiling suite on a separate listener (-pprof-addr on the same
// binaries), kept apart from the metrics surface on purpose.
package obs
