// Package trace is Calibre's flight recorder: a structured, durable event
// log answering "what happened to client N in round R" after the fact,
// which aggregate counters (package obs) cannot.
//
// Producers — fl.Simulator, flnet.Server, and the sweep scheduler — emit
// typed Events (round spans, per-client dispatch/update/drop with an
// attributed drop reason, checkpoint/resume marks, sweep cell spans)
// through a Recorder. The Recorder buffers them in a preallocated bounded
// ring and drains the ring into an append-only Sink as length-prefixed
// JSONL ("<len> <json>\n"), batching writes so the hot path is one short
// critical section with no allocation. FileSink adds size-bounded file
// rotation using the same atomic same-directory rename discipline as
// store.AtomicWriteFile.
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
// (ErrCorrupt). `calibre trace` builds summaries, ASCII
// timelines, and filtered views on top of this package.
package trace
