package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// ErrIncremental is returned by DecodeSnapshot for an incremental blob:
// its global vector is a delta against another version, so it can only be
// resolved by a Store that can open the reference (Store.Open does).
var ErrIncremental = errors.New("store: incremental snapshot needs its reference version resolved")

// Meta describes the federation a snapshot belongs to. It travels inside
// the blob (JSON section — it is tiny and string-heavy) so a checkpoint
// directory is self-describing.
type Meta struct {
	// Seed is the federation's master seed.
	Seed int64 `json:"seed"`
	// Fingerprint condenses the run-defining configuration (method,
	// setting, scale, population, quorum knobs). Store.Resume refuses a
	// snapshot whose fingerprint does not match the resuming process's.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Runtime names the producer: "simulator" or "server".
	Runtime string `json:"runtime,omitempty"`
}

// Snapshot is one durable checkpoint: metadata plus the complete round
// state the runtimes resume from.
type Snapshot struct {
	Meta  Meta
	State fl.SimState
}

// RoundStats flag bits (history section).
const (
	histDeadlineExpired byte = 1 << iota
)

// encodeSnapshotWith writes the common snapshot frame into buf's storage
// (nil allocates), delegating the state section (full vector vs
// incremental delta) to writeState.
func encodeSnapshotWith(buf []byte, s *Snapshot, extra int, writeState func(e *encoder)) ([]byte, error) {
	meta, err := json.Marshal(s.Meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode meta: %w", err)
	}
	st := &s.State
	capacity := len(meta) + 8 + extra + 8 + 8*len(st.EligibleCounts) + 64
	for _, h := range st.History {
		capacity += 56 + 8*(len(h.Participants)+len(h.Responders)+len(h.Stragglers))
	}
	e := newEncoder(buf, capacity)

	sec := e.begin(secMeta)
	e.buf = append(e.buf, meta...)
	e.end(sec)

	writeState(e)

	sec = e.begin(secHistory)
	e.u32(uint32(len(st.History)))
	for _, h := range st.History {
		e.i64(int64(h.Round))
		e.f64(h.MeanLoss)
		e.i64(int64(h.LateUpdates))
		e.i64(int64(h.AdversarialUpdates))
		e.i64(int64(h.RejectedUpdates))
		var flags byte
		if h.DeadlineExpired {
			flags |= histDeadlineExpired
		}
		e.u8(flags)
		e.intVec(h.Participants)
		e.intVec(h.Responders)
		e.intVec(h.Stragglers)
	}
	e.end(sec)

	sec = e.begin(secCounts)
	e.i64(int64(len(st.EligibleCounts)))
	for _, n := range st.EligibleCounts {
		e.i64(int64(n))
	}
	e.end(sec)

	return e.finish(), nil
}

// fullStateSize and deltaStateSize are the payload sizes of the two state
// sections — the only bytes in which a full and an incremental blob of the
// same snapshot differ, so comparing them compares the blobs.
func fullStateSize(elems int) int       { return 8 + 8 + 8*elems }
func deltaStateSize(d *param.Delta) int { return 8 + 8 + 8 + len(d.Bits) }

// EncodeSnapshot serializes a snapshot into one self-checking blob.
// Encoding is deterministic: the same snapshot always produces
// byte-identical output. The parameter vector and history are pure binary
// (floats as exact IEEE-754 bits — NaN and ±Inf payloads survive).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	return encodeSnapshot(nil, s)
}

// encodeSnapshot is EncodeSnapshot into buf's storage.
func encodeSnapshot(buf []byte, s *Snapshot) ([]byte, error) {
	return encodeSnapshotWith(buf, s, fullStateSize(len(s.State.Global)), func(e *encoder) {
		sec := e.begin(secState)
		e.i64(int64(s.State.Round))
		appendVectorPayload(e, s.State.Global)
		e.end(sec)
	})
}

// encodeSnapshotDelta serializes a snapshot incrementally: its global
// vector is stored as d, the lossless XOR-delta against the (resolved)
// global of on-disk version refVersion — typically a small fraction of the
// full vector's 8 bytes per element, since consecutive checkpoints of a
// converging federation differ slightly. Metadata, history and pool counts
// are still stored in full (they are a sliver of the model payload), so
// everything except the global vector decodes without touching the
// reference. Decoding requires the reference chain: DecodeSnapshot refuses
// the blob with ErrIncremental, Store.Open resolves it.
func encodeSnapshotDelta(buf []byte, s *Snapshot, refVersion int, d *param.Delta) ([]byte, error) {
	if refVersion < 1 {
		return nil, fmt.Errorf("store: incremental snapshot needs a positive reference version, got %d", refVersion)
	}
	return encodeSnapshotWith(buf, s, deltaStateSize(d), func(e *encoder) {
		sec := e.begin(secDeltaState)
		appendDeltaStatePayload(e, s.State.Round, refVersion, d)
		e.end(sec)
	})
}

func readHistoryPayload(p []byte) ([]fl.RoundStats, error) {
	r := &reader{p: p}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Each entry needs ≥ 44 bytes (round, loss, late/adversarial/rejected
	// updates, flags, three presence bytes); reject counts the payload
	// cannot possibly hold.
	if uint64(n)*44 > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: history declares %d rounds in %d bytes", ErrMalformed, n, r.remaining())
	}
	if n == 0 {
		if r.remaining() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after history", ErrMalformed, r.remaining())
		}
		return nil, nil
	}
	out := make([]fl.RoundStats, n)
	for i := range out {
		h := &out[i]
		round, err := r.i64()
		if err != nil {
			return nil, err
		}
		h.Round = int(round)
		if h.MeanLoss, err = r.f64(); err != nil {
			return nil, err
		}
		late, err := r.i64()
		if err != nil {
			return nil, err
		}
		h.LateUpdates = int(late)
		adv, err := r.i64()
		if err != nil {
			return nil, err
		}
		h.AdversarialUpdates = int(adv)
		rej, err := r.i64()
		if err != nil {
			return nil, err
		}
		h.RejectedUpdates = int(rej)
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		if flags&^histDeadlineExpired != 0 {
			return nil, fmt.Errorf("%w: unknown history flags %#x", ErrMalformed, flags)
		}
		h.DeadlineExpired = flags&histDeadlineExpired != 0
		if h.Participants, err = r.intVec(); err != nil {
			return nil, err
		}
		if h.Responders, err = r.intVec(); err != nil {
			return nil, err
		}
		if h.Stragglers, err = r.intVec(); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after history", ErrMalformed, r.remaining())
	}
	return out, nil
}

func readCountsPayload(p []byte) ([]int, error) {
	r := &reader{p: p}
	n, err := r.i64()
	if err != nil {
		return nil, err
	}
	// Compare against remaining/8 (never n*8, which a hostile n overflows).
	if rem := int64(r.remaining()); n < 0 || rem%8 != 0 || n != rem/8 {
		return nil, fmt.Errorf("%w: counts declare %d entries in %d bytes", ErrMalformed, n, r.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.i64()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// decodeSnapshot parses either snapshot flavor. For a full snapshot ref
// is nil and State.Global is populated; for an incremental one ref holds
// the round/reference/delta and State.Global stays nil until the caller
// resolves the reference chain (Store.Open).
func decodeSnapshot(data []byte) (*Snapshot, *deltaRef, error) {
	f, err := parseFrame(data)
	if err != nil {
		return nil, nil, err
	}
	var (
		s           Snapshot
		ref         *deltaRef
		haveMeta    bool
		haveVector  bool
		haveHistory bool
		haveCounts  bool
	)
	for i := 0; i < f.sections; i++ {
		kind, p, err := f.next()
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case secMeta:
			if haveMeta {
				return nil, nil, fmt.Errorf("%w: duplicate meta section", ErrMalformed)
			}
			haveMeta = true
			if err := json.Unmarshal(p, &s.Meta); err != nil {
				return nil, nil, fmt.Errorf("%w: meta: %v", ErrMalformed, err)
			}
		case secState:
			if haveVector {
				return nil, nil, fmt.Errorf("%w: duplicate state section", ErrMalformed)
			}
			haveVector = true
			r := &reader{p: p}
			round, err := r.i64()
			if err != nil {
				return nil, nil, err
			}
			s.State.Round = int(round)
			if s.State.Global, err = readVectorPayload(p[r.off:]); err != nil {
				return nil, nil, err
			}
		case secDeltaState:
			if haveVector {
				return nil, nil, fmt.Errorf("%w: duplicate state section", ErrMalformed)
			}
			haveVector = true
			if ref, err = readDeltaStatePayload(p); err != nil {
				return nil, nil, err
			}
			s.State.Round = ref.round
		case secHistory:
			if haveHistory {
				return nil, nil, fmt.Errorf("%w: duplicate history section", ErrMalformed)
			}
			haveHistory = true
			if s.State.History, err = readHistoryPayload(p); err != nil {
				return nil, nil, err
			}
		case secCounts:
			if haveCounts {
				return nil, nil, fmt.Errorf("%w: duplicate counts section", ErrMalformed)
			}
			haveCounts = true
			if s.State.EligibleCounts, err = readCountsPayload(p); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("%w: unknown section kind %d", ErrMalformed, kind)
		}
	}
	if err := f.finish(); err != nil {
		return nil, nil, err
	}
	if !haveMeta || !haveVector {
		return nil, nil, fmt.Errorf("%w: snapshot missing %s section", ErrMalformed,
			map[bool]string{false: "meta", true: "state"}[haveMeta])
	}
	return &s, ref, nil
}

// DecodeSnapshot decodes a blob produced by EncodeSnapshot. It never
// panics and never allocates more than the input size implies; corrupt or
// hostile input yields a typed error (ErrBadMagic, ErrVersion,
// ErrChecksum, ErrTruncated, ErrMalformed). An incremental blob
// (what an incremental Store.Save writes) is structurally valid but unresolvable without
// its reference chain and yields ErrIncremental — open it through a
// Store instead.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s, ref, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if ref != nil {
		return nil, fmt.Errorf("%w (reference v%d)", ErrIncremental, ref.refVersion)
	}
	return s, nil
}
