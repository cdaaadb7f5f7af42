// Package trace is Calibre's flight recorder: a structured, durable event
// log answering "what happened to client N in round R" after the fact,
// which aggregate counters (package obs) cannot.
//
// Producers — fl.Simulator, flnet.Server, and the sweep scheduler — emit
// typed Events (round spans, per-client dispatch/update/drop/late with an
// attributed drop reason, checkpoint/resume marks, sweep cell spans)
// through a Recorder. The round core's events are its only observability
// output: health.Fold records them and folds them into the metrics and
// health planes. The Recorder buffers them in a preallocated bounded
// ring and drains the ring into an append-only Sink as length-prefixed
// JSONL ("<len> <json>\n"), batching writes so the hot path is one short
// critical section with no allocation. FileSink appends to one file per
// run, which is what every reader reads.
//
// Determinism is a first-class contract, matching the rest of the repo:
// timestamps come from an injectable Clock, field order in the encoding
// is fixed, and emission happens in canonical order on the round loop —
// so a run with an injected clock produces byte-identical trace files,
// and an instrumented run is bit-identical to a bare one (pinned by
// TestTraceDoesNotPerturbRun). A nil *Recorder is a no-op, so runtimes
// instrument unconditionally, like obs.Registry.
//
// Traces are read back with Reader/ReadAll, which tolerate the torn tail
// a crash leaves (ErrTruncated) and refuse structural damage
// (ErrCorrupt). Runs decides which of a trace's events are the run: one
// Run per federation (sweep cell), without what a resumption re-executed.
// `calibre trace` builds summaries, ASCII timelines, and filtered views on
// top of this package.
package trace
