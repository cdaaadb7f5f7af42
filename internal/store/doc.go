// Package store is Calibre's durability layer: a compact, deterministic,
// versioned binary codec for tensor and model state, and an on-disk
// checkpoint store that makes multi-hour federations survive process
// crashes. The fl.Simulator and the flnet TCP server checkpoint their
// round state through it and resume bit-identically after a restart; the
// `calibre ckpt` inspects, diffs and exports what it writes.
//
// # Blob format
//
// Every blob — snapshot, bare parameter vector or model tensor set —
// shares one self-checking frame:
//
//	┌──────────┬──────────┬──────────┬───────────────┐
//	│ "CLBS"   │ version  │ flags    │ section count │   12-byte header
//	│ 4 bytes  │ u16 LE   │ u16 = 0  │ u32 LE        │
//	├──────────┴──────────┴──────────┴───────────────┤
//	│ section: kind (u8) │ length (u64 LE) │ payload │   × section count
//	├────────────────────────────────────────────────┤
//	│ CRC32-C over every preceding byte (u32 LE)     │   4-byte trailer
//	└────────────────────────────────────────────────┘
//
// Floats are raw little-endian IEEE-754 bits (8 bytes each, NaN payloads
// and ±Inf included), which makes encoding both byte-deterministic and
// lossless to 0 ULP — and smaller and faster than encoding/gob, which
// spends ~9 bytes per random float64 plus reflection time (bench/'s
// store.encode_us / store.decode_us / store.save_ms time it at the
// workloads' model sizes). A snapshot carries four sections: JSON metadata
// (seed, config fingerprint, producing runtime), the round + global
// vector, the binary-encoded RoundStats history, and the per-round
// sampling-pool sizes the server replays its RNG against.
//
// The decoder is hardened for hostile input (it is fuzzed; the corpus is
// committed): magic, version, flags and CRC are validated before any
// section is parsed, every declared length is checked against the bytes
// actually present before allocation, and malformed input yields typed
// errors (ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated,
// ErrMalformed) — never a panic.
//
// # Incremental snapshots
//
// With Store.SetIncremental(true), Save replaces the full global-vector
// section with a delta section: the round number, the version it
// references, and the param package's lossless XOR-delta of this global
// against the referenced version's — unchanged elements cost amortized
// fractions of a byte and slightly-moved weights a few bytes, so
// checkpoint storage scales with per-round drift instead of model size.
// Metadata, history and pool counts stay full (they are a sliver of the
// model payload). Chains are bounded: after deltaChainLimit links Save
// writes the next full snapshot, and it also falls back to full whenever
// no usable reference exists (fresh directory, unreadable latest version,
// or a parameter-dimension change). Store.Open resolves chains
// transparently and bit-exactly — XOR reconstruction is exact for every
// bit pattern — so kill/resume bit-identity is preserved verbatim; the
// standalone DecodeSnapshot refuses an incremental blob with
// ErrIncremental since it cannot see the chain. A broken link (deleted or
// corrupt reference) makes every snapshot above it unreadable, and Latest
// falls back below it, which the chain bound keeps to at most
// deltaChainLimit lost rounds. `calibre ckpt` list/inspect/diff report each
// version's encoding, reference and chain depth.
//
// # Checkpoint directory
//
// A Store is a flat directory of ckpt-%08d.calibre files with dense
// versions assigned by Save. Writes are atomic — temp file, fsync, then
// a no-replace link into place — so an existing snapshot can never be
// damaged by a crash or clobbered by a concurrent saver; a torn new file
// simply fails its CRC and Latest falls back to the previous good
// version. Resume adds a configuration fingerprint check so an operator
// cannot accidentally continue a differently-configured federation
// (ErrFingerprintMismatch), and the runtimes additionally refuse to
// resume methods carrying cross-round state a snapshot does not capture
// (fl.ErrStatefulResume).
//
// Save is synchronous: when it returns the version is durable. SaveHook,
// the adapter to the runtimes' OnCheckpoint hooks, is write-behind: the
// hook call hands the save to the round loop (fl.SimState.Defer), which
// runs it on one checkpoint goroutine behind the next round, waits for it
// before the next checkpoint and before Run returns, and fails the run
// with its error. So onSaved — not the hook call returning, and not the
// round's OnRound — is what says a version is on disk; a kill -9 can lose
// exactly the one version in flight, and Latest falls back to the one
// before it. A steady-state save allocates nothing model-sized: the
// state is a shared view, the delta and frame buffers are kept between
// saves, the hook path keeps the handed-off global as the next delta
// reference instead of copying it, and only a handle's first save lists
// the directory (later ones start publishing above its own last version).
//
// # Resume state machine
//
// A resuming runtime moves through:
//
//	load      Store.Resume(fingerprint) → latest good Snapshot (skipping
//	          torn files), or a nil Snapshot → start fresh.
//	validate  fl.SimState.Validate: round within budget, history and
//	          pool counts consistent, non-empty global vector; the
//	          parameter dimension must match what the method initializes.
//	replay    The master RNG is reconstructed, not stored: InitGlobal
//	          consumes its draws, then each completed round's sampling
//	          and dropout draws are replayed (the simulator re-derives
//	          the pool; the server replays the recorded EligibleCounts).
//	continue  The round loop starts at State.Round with the snapshot's
//	          global vector and history — bit-identical, from there on,
//	          to a run that never stopped.
package store
