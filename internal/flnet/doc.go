// Package flnet runs federated learning over a real network: a server
// process orchestrates rounds over TCP connections to client processes,
// exchanging gob-encoded envelopes and raw-framed parameter vectors. It
// mirrors the in-process
// simulator in internal/fl (same Trainer/Aggregator/Personalizer contracts)
// so any method can be run distributed without modification. The
// `calibre serve` and `calibre join` commands (cmd/calibre) are thin wrappers
// around this package.
//
// # Wire protocol
//
// A fresh connection opens with a preamble exchange: each side immediately
// writes 8 bytes — the magic "CALF", a little-endian uint16
// ProtocolVersion and two reserved zero bytes — then reads and validates
// the peer's. Both sides write first, so the exchange cannot deadlock. A
// peer with the wrong magic or version is rejected with a typed
// ErrProtocolMismatch (client side) or silently dropped (server side)
// before any gob traffic, so an incompatible build fails with a clear
// error instead of a gob decode failure mid-handshake.
//
// A train-result carries the client's whole updated vector as one dense
// frame (fl.Update.Params); there is no compressed form and nothing to
// negotiate. The server validates it at ingress (fl.Update.CheckSize), and
// a client whose payload fails validation (missing, wrong length) is
// evicted from the federation instead of panicking the aggregator. The
// round then proceeds like any other client failure: with a K<N quorum
// configured it closes on the remaining responders, while under the
// default all-must-reply discipline it fails loudly with
// fl.ErrQuorumNotMet (the typed fl.ErrUpdateSize in its cause) — the
// strict synchronous contract would otherwise silently aggregate fewer
// updates. Version 1 spoke dense []float64 payloads only; version 2
// carried every vector inside the gob stream, one reflected element at a
// time and nine bytes each; versions 2 and 3 let a client ship its update
// as a lossless XOR-delta against the round's global inside the gob
// header, which on trained updates saved a tenth of the bytes (trained
// weights XOR to 7–8-byte words) for a fifth of a wide model's round in
// encode and decode time — ARCHITECTURE.md "Update plane" has the
// numbers. All three are refused at the preamble.
//
// The current ProtocolVersion is 4. After the preamble, every message on
// the wire is one Envelope: a gob-encoded header — the Envelope with its
// parameter vectors taken out — followed by those vectors as raw frames.
// gob's self-describing stream frames the header: type descriptors travel
// once per connection, each subsequent Encode emits one length-delimited
// value, and a Decode that hits a truncated or corrupt stream fails
// cleanly instead of desynchronizing. No payload travels in a header, so
// the receiver reads it under a constant byte budget (64 KiB a message):
// a peer that declares or streams more fails with the typed ErrBadFrame
// before any frame is looked at. A frame is a little-endian uint64
// byte length and that many bytes of little-endian IEEE-754 doubles (what
// internal/store writes to disk), in the fixed order Global,
// Update.Params, Update.ControlDelta; which of them follow a header is
// announced by one bit each above the message type in the header's Type
// field, so a message without vectors is a bare gob envelope. The receiver
// checks a frame's declared length before allocating anything for it: it
// must be a whole number of float64s, equal the model size once that is
// known (the server knows it from the global it sent; a client from the
// first global it received) and stay under MaxFrameBytes until then, else
// the message fails with ErrBadFrame too — as does a header that
// carries vector elements inside gob or announces frames its content
// does not allow. Vectors are decoded into per-connection buffers reused
// from round to round — an update's vectors stay in its connection's
// buffers until the round closes, which is before that client is sent
// anything again — and the server frames a round's global once,
// however many participants it is sent to.
//
// The Envelope.Type field discriminates which of the remaining fields are
// meaningful:
//
//	Type                Direction        Fields used
//	join                client → server  ClientID
//	join-ack            server → client  ClientID
//	train               server → client  Round, Global (frame)
//	train-result        client → server  ClientID, Round, Update (a Params frame; SCAFFOLD adds a ControlDelta frame)
//	personalize         server → client  Global (frame)
//	personalize-result  client → server  ClientID, Accuracy
//	shutdown            server → client  —
//	error               either           Err (also ClientID from clients)
//
// Strictly one request is in flight per connection: the server never sends
// a second train/personalize before the reply to the first arrives (or the
// round machinery gives up on the connection). Replies carry the Round they
// answer, which is how the server tells a live update from a straggler's
// stale one.
//
// # Round lifecycle
//
// The server does not own a round loop: rounds are run by the round core
// in internal/fl (fl.RunRounds), which owns the lifecycle (InitGlobal,
// resume, checkpoints, OnRound), the round ledger (uplink accounting,
// ingress validation, canonical-order aggregation, quorum checks) and
// every RoundStats, obs.RoundSample and trace event. This package is the
// core's TCP fl.Transport — the roundEngine's Draw (sample from the
// roster clients with no in-flight request; one availability draw each)
// and Collect (dispatch, the event loop below, eviction, deadline) —
// wrapped in the join and personalize stages. The same core drives the
// in-process fl.Simulator, which is why both runtimes produce the same
// numbers for the same (method, seed, config).
//
// A federation passes through these states:
//
//	joining    Clients dial in and handshake (join / join-ack). Training
//	           starts once ServerConfig.NumClients have joined. The
//	           listener stays open afterwards: late joiners are admitted
//	           at any time and become sampleable at the next round
//	           boundary. Duplicate IDs and garbage handshakes are
//	           rejected per-connection without disturbing the federation.
//
//	dispatch   Each round samples ClientsPerRound eligible clients
//	           (joined, not evicted, no in-flight request) and sends each
//	           a train message with the current global vector.
//
//	collect    Each reply is handed to the round ledger (fl.Round.Arrive),
//	           which folds updates into a running aggregate
//	           (fl.UpdateSink) in canonical participant order as they
//	           become contiguous — payloads are buffered only while
//	           reordering demands it. A client that fails, misbehaves or
//	           ships a payload the ledger rejects is evicted — roster
//	           entry and in-flight mark released together — and its slot
//	           dropped.
//	           The round closes when either
//	             (a) every participant replied, or
//	             (b) RoundDeadline expired with ≥ Quorum updates.
//	           If the deadline expires short of quorum — or client
//	           failures make quorum unreachable — the federation fails
//	           with fl.ErrQuorumNotMet.
//
//	straggle   Participants that miss a deadline-closed round are
//	           stragglers. Under fl.StragglerRequeue (default) a
//	           straggler stays in the federation: it is simply not
//	           sampled again until its stale reply drains, which is
//	           counted as a LateUpdate in the round that observes it.
//	           Under fl.StragglerDrop the straggler is evicted and its
//	           connection closed. Per-round accounting (Responders,
//	           Stragglers, LateUpdates, DeadlineExpired) is surfaced in
//	           fl.RoundStats.
//
//	personalize After the last round the server waits for in-flight
//	           stragglers to drain, then sends every surviving client a
//	           personalize request and collects local test accuracies.
//
//	shutdown   Clients receive shutdown and exit cleanly.
//
// # Determinism
//
// With Quorum and RoundDeadline left zero the server is fully synchronous
// and bit-identical to the historical lock-step implementation. With quorum
// aggregation configured, a run in which every participant replies within
// the deadline is still bit-identical to the synchronous path: sampling
// consumes the master RNG identically, and ingestion order is canonical
// participant order regardless of arrival order (see fl.Round.Advance). When
// stragglers do occur, the aggregate depends only on *which* clients
// responded, never on arrival timing.
//
// # Durability
//
// With ServerConfig.OnCheckpoint set (`calibre serve` wires it to an
// internal/store.Store via -checkpoint-dir), the server hands the hook an
// immutable view of its complete round state — round counter, global
// vector, RoundStats history and the per-round sampling-pool sizes — after
// every CheckpointEvery-th round, before OnRound fires. The store's hook
// is write-behind: the save itself runs behind the next round's dispatch
// and collection, the next due checkpoint waits for it, and Run does not
// return — finished, cancelled or failed — before the last accepted
// checkpoint is durable (or its error reported). A killed server is
// restarted with ResumeFrom pointing at the latest snapshot: it waits for
// NumClients to (re)join, replays its sampling draws — through the same
// Draw function live rounds use — against the recorded pool sizes to
// restore the master RNG, and continues from the
// checkpointed round. Clients need no persistent state — local updates
// are pure functions of (seed, round, client, global) — so a resumed
// federation in which every participant responds is bit-identical to one
// that never stopped. See internal/store for the snapshot format and the
// resume state machine.
package flnet
