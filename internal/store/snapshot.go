package store

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"calibre/internal/fl"
	"calibre/internal/param"
)

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

// EncodeSnapshot serializes a snapshot into one self-checking blob.
// Encoding is deterministic: the same snapshot always produces
// byte-identical output. The parameter vector and history are pure binary
// (floats as exact IEEE-754 bits — NaN and ±Inf payloads survive).
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	p, err := encodeSnapshot(nil, s, false)
	return p.buf, err
}

// encodeSnapshot is EncodeSnapshot into buf's storage (nil allocates). With
// lend the frame takes the global's memory by reference (param.Bytes)
// instead of copying it: what Store.Save writes a file from.
func encodeSnapshot(buf []byte, s *Snapshot, lend bool) (pieces, error) {
	meta, err := json.Marshal(s.Meta)
	if err != nil {
		return pieces{}, fmt.Errorf("store: encode meta: %w", err)
	}
	st := &s.State
	capacity := len(meta) + 96 + 8*len(st.EligibleCounts)
	if len(st.Rows) > 0 {
		capacity += 17
		for _, row := range st.Rows {
			capacity += 16 + 8*len(row)
		}
	}
	if !lend {
		capacity += 8 * len(st.Global)
	}
	for _, h := range st.History {
		capacity += 56 + 8*(len(h.Participants)+len(h.Responders)+len(h.Stragglers))
	}
	e := newEncoder(buf, capacity)
	e.lends = lend

	sec := e.begin(secMeta)
	e.buf = append(e.buf, meta...)
	e.end(sec)

	sec = e.begin(secState)
	e.i64(int64(st.Round))
	appendVectorPayload(e, st.Global)
	e.end(sec)

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

	if len(st.Rows) > 0 {
		ids := make([]int, 0, len(st.Rows))
		for id := range st.Rows {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		sec = e.begin(secRows)
		e.i64(int64(len(ids)))
		for _, id := range ids {
			row := st.Rows[id]
			e.i64(int64(id))
			e.i64(int64(len(row)))
			e.buf = append(e.buf, param.Bytes(row)...)
		}
		e.end(sec)
	}

	return e.finish(), nil
}

// readRowsPayload mirrors the rows section: a count, then each row's client
// id — strictly ascending, so one table has one encoding — and its floats.
func readRowsPayload(p []byte) (map[int]param.Vector, error) {
	r := &reader{p: p}
	n, err := r.i64()
	if err != nil {
		return nil, err
	}
	// Each row takes ≥ 16 bytes (id, length): against remaining/16, a
	// hostile count can neither overflow nor over-allocate.
	if n < 1 || n > int64(r.remaining()/16) {
		return nil, fmt.Errorf("%w: rows section declares %d rows in %d bytes", ErrMalformed, n, r.remaining())
	}
	out := make(map[int]param.Vector, n)
	for i, last := int64(0), int64(math.MinInt64); i < n; i++ {
		id, err := r.i64()
		if err != nil {
			return nil, err
		}
		size, err := r.i64()
		if err != nil {
			return nil, err
		}
		if (i > 0 && id <= last) || size < 0 || size > int64(r.remaining()/8) {
			return nil, fmt.Errorf("%w: row %d (after row %d) declares %d floats, %d bytes remain", ErrMalformed, id, last, size, r.remaining())
		}
		last = id
		if out[int(id)], err = r.floats(int(size)); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after rows", ErrMalformed, r.remaining())
	}
	return out, nil
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

// DecodeSnapshot decodes a blob produced by EncodeSnapshot. It never
// panics and never allocates more than the input size implies; corrupt or
// hostile input yields a typed error (ErrBadMagic, ErrVersion,
// ErrChecksum, ErrTruncated, ErrMalformed), and an incremental snapshot an
// older build wrote yields ErrRetiredIncremental.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	f, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	var (
		s           Snapshot
		haveMeta    bool
		haveVector  bool
		haveHistory bool
		haveCounts  bool
		haveRows    bool
	)
	for i := 0; i < f.sections; i++ {
		kind, p, err := f.next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case secMeta:
			if haveMeta {
				return nil, fmt.Errorf("%w: duplicate meta section", ErrMalformed)
			}
			haveMeta = true
			if err := json.Unmarshal(p, &s.Meta); err != nil {
				return nil, fmt.Errorf("%w: meta: %v", ErrMalformed, err)
			}
		case secState:
			if haveVector {
				return nil, fmt.Errorf("%w: duplicate state section", ErrMalformed)
			}
			haveVector = true
			r := &reader{p: p}
			round, err := r.i64()
			if err != nil {
				return nil, err
			}
			s.State.Round = int(round)
			if s.State.Global, err = readVectorPayload(p[r.off:]); err != nil {
				return nil, err
			}
		case secIncremental:
			return nil, ErrRetiredIncremental
		case secHistory:
			if haveHistory {
				return nil, fmt.Errorf("%w: duplicate history section", ErrMalformed)
			}
			haveHistory = true
			if s.State.History, err = readHistoryPayload(p); err != nil {
				return nil, err
			}
		case secCounts:
			if haveCounts {
				return nil, fmt.Errorf("%w: duplicate counts section", ErrMalformed)
			}
			haveCounts = true
			if s.State.EligibleCounts, err = readCountsPayload(p); err != nil {
				return nil, err
			}
		case secRows:
			if haveRows {
				return nil, fmt.Errorf("%w: duplicate rows section", ErrMalformed)
			}
			haveRows = true
			if s.State.Rows, err = readRowsPayload(p); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrMalformed, kind)
		}
	}
	if err := f.finish(); err != nil {
		return nil, err
	}
	if !haveMeta || !haveVector {
		return nil, fmt.Errorf("%w: snapshot missing %s section", ErrMalformed,
			map[bool]string{false: "meta", true: "state"}[haveMeta])
	}
	return &s, nil
}
