package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// specialFloats are the payloads a lossless codec must not disturb: NaN
// (including a non-standard payload), infinities, signed zero, denormals
// and extreme magnitudes.
var specialFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8dead_beef0001), // NaN with payload bits
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1.0 / 3.0, -math.Pi,
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// globalRoundTrip sends v through a snapshot's state section, the one
// place the codec carries a parameter vector.
func globalRoundTrip(v []float64) ([]float64, error) {
	blob, err := EncodeSnapshot(&Snapshot{State: fl.SimState{Global: v}})
	if err != nil {
		return nil, err
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		return nil, err
	}
	return got.State.Global, nil
}

func TestVectorRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 0, 512)
	v = append(v, specialFloats...)
	for len(v) < cap(v) {
		v = append(v, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	got, err := globalRoundTrip(v)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bitsEqual(got, v) {
		t.Fatal("vector round trip is not 0-ULP identical")
	}
}

// TestVectorRoundTripProperty drives the round trip with machine-generated
// vectors (testing/quick fills them with adversarial bit patterns).
func TestVectorRoundTripProperty(t *testing.T) {
	prop := func(v []float64) bool {
		got, err := globalRoundTrip(v)
		return err == nil && bitsEqual(got, v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// testSnapshot builds a snapshot exercising every field the codec must
// preserve, including nil-vs-empty distinctions in the history.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{Seed: -42, Fingerprint: "deadbeef01234567", Runtime: "server"},
		State: fl.SimState{
			Round:  3,
			Global: []float64{1.5, -2.25, math.Pi, 0},
			History: []fl.RoundStats{
				{Round: 0, Participants: []int{0, 1, 2}, MeanLoss: 0.75},
				{Round: 1, Participants: []int{1, 3}, MeanLoss: 1.0 / 3.0,
					Responders: []int{1}, Stragglers: []int{3}, DeadlineExpired: true},
				{Round: 2, Participants: []int{0, 2}, MeanLoss: 0.5, LateUpdates: 2,
					Responders: []int{}},
			},
			EligibleCounts: []int{4, 4, 3},
		},
	}
}

// randomSnapshot is a checkpoint's usual shape: n weights drawn N(0,1)
// (full-entropy mantissas, the payload no general-purpose encoder shrinks)
// under a 10-round, 10-participant history.
func randomSnapshot(n int) *Snapshot {
	rng := rand.New(rand.NewSource(42))
	snap := &Snapshot{
		Meta:  Meta{Seed: 42, Fingerprint: Fingerprint("codec", "size"), Runtime: "simulator"},
		State: fl.SimState{Round: 10, Global: make([]float64, n)},
	}
	for i := range snap.State.Global {
		snap.State.Global[i] = rng.NormFloat64()
	}
	for r := 0; r < 10; r++ {
		ids := make([]int, 10)
		for i := range ids {
			ids[i] = rng.Intn(100)
		}
		snap.State.History = append(snap.State.History, fl.RoundStats{Round: r, Participants: ids, MeanLoss: rng.Float64()})
		snap.State.EligibleCounts = append(snap.State.EligibleCounts, 100)
	}
	return snap
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name string
		snap *Snapshot
		// maxBytes, when set, is the size ceiling: a float costs its 8 raw
		// bytes and everything else (header, metadata, history, counts,
		// CRC) stays under 2 KiB here. encoding/gob, the format this codec
		// replaced, needs ≈9.15 bytes per such float and does not fit.
		maxBytes int
	}{
		{name: "every-field", snap: testSnapshot()},
		{name: "random-4k", snap: randomSnapshot(4096), maxBytes: 8*4096 + 2048},
		{name: "client-rows", snap: withRows(testSnapshot())},
	} {
		blob, err := EncodeSnapshot(c.snap)
		if err != nil {
			t.Fatalf("%s: EncodeSnapshot: %v", c.name, err)
		}
		if c.maxBytes > 0 && len(blob) > c.maxBytes {
			t.Errorf("%s: encodes to %d bytes, ceiling %d", c.name, len(blob), c.maxBytes)
		}
		got, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("%s: DecodeSnapshot: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.snap) {
			t.Fatalf("%s: snapshot round trip differs:\n%+v\nvs\n%+v", c.name, got, c.snap)
		}
		again, err := EncodeSnapshot(c.snap)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", c.name, err)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("%s: snapshot encoding is not deterministic", c.name)
		}
	}
}

// withRows gives snap a client table's rows, in no particular map order.
func withRows(snap *Snapshot) *Snapshot {
	snap.State.Rows = map[int]param.Vector{17: {1.5, -2, 1e-300}, 0: {3}, 4: {}, 9: {0.25, 0.5}}
	return snap
}

// TestRowlessSnapshotEncodesAsBefore: the rows section is written only when
// the state has rows, so the snapshot of a method without a client table —
// nil or empty Rows — is, byte for byte, the frame the build before the
// section kind existed wrote (the digest is that build's encoding).
func TestRowlessSnapshotEncodesAsBefore(t *testing.T) {
	for _, rows := range []map[int]param.Vector{nil, {}} {
		b, err := EncodeSnapshot(&Snapshot{
			Meta: Meta{Seed: 7, Fingerprint: "abc", Runtime: "simulator"},
			State: fl.SimState{
				Round:  2,
				Global: []float64{1, math.NaN(), math.Inf(-1), 0, 3.25},
				History: []fl.RoundStats{
					{Round: 0, Participants: []int{0, 1}, MeanLoss: 0.5},
					{Round: 1, Participants: []int{1}, Responders: []int{1}, Stragglers: []int{}, DeadlineExpired: true},
				},
				EligibleCounts: []int{2, 2},
				Rows:           rows,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "edf1f972175f4da8a3acef3fcf160d7d07856b2ac3da2b69d4fbab6a03b8b098"
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != 324 || got != want {
			t.Fatalf("rows %v: %d bytes, sha256 %s; want 324 bytes, %s", rows, len(b), got, want)
		}
	}
}

// TestDecodeRejectsMalformedRows: a rows section decodes to one table only
// — ids strictly ascending, at least one row, every declared length there
// and nothing after the last row.
func TestDecodeRejectsMalformedRows(t *testing.T) {
	build := func(rows func(e *encoder)) []byte {
		e := newEncoder(nil, 64)
		sec := e.begin(secMeta)
		e.buf = append(e.buf, []byte(`{"seed":1}`)...)
		e.end(sec)
		sec = e.begin(secState)
		e.i64(0)
		appendVectorPayload(e, []float64{1})
		e.end(sec)
		sec = e.begin(secRows)
		rows(e)
		e.end(sec)
		return e.finish().buf
	}
	row := func(e *encoder, id int64, v ...float64) {
		e.i64(id)
		e.i64(int64(len(v)))
		for _, x := range v {
			e.f64(x)
		}
	}
	if s, err := DecodeSnapshot(build(func(e *encoder) { e.i64(2); row(e, 1, 0.5); row(e, 4) })); err != nil || len(s.State.Rows) != 2 {
		t.Fatalf("well-formed rows: %v, %v", s, err)
	}
	for name, rows := range map[string]func(e *encoder){
		"no rows":        func(e *encoder) { e.i64(0) },
		"negative count": func(e *encoder) { e.i64(-1) },
		"huge count":     func(e *encoder) { e.i64(1 << 60); row(e, 1, 0.5) },
		"repeated id":    func(e *encoder) { e.i64(2); row(e, 3, 1); row(e, 3, 2) },
		"descending ids": func(e *encoder) { e.i64(2); row(e, 3, 1); row(e, 2, 2) },
		"short row":      func(e *encoder) { e.i64(1); e.i64(1); e.i64(2); e.f64(1) },
		"huge row":       func(e *encoder) { e.i64(1); e.i64(1); e.i64(1 << 60) },
		"trailing bytes": func(e *encoder) { e.i64(1); row(e, 1, 0.5); e.u8(0) },
	} {
		if _, err := DecodeSnapshot(build(rows)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestSnapshotNaNLoss: the binary history section must carry a NaN
// MeanLoss losslessly (a JSON-based history could not).
func TestSnapshotNaNLoss(t *testing.T) {
	snap := testSnapshot()
	snap.State.History[0].MeanLoss = math.Float64frombits(0x7ff8000000000042)
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if math.Float64bits(got.State.History[0].MeanLoss) != 0x7ff8000000000042 {
		t.Fatalf("NaN payload not preserved: %x", math.Float64bits(got.State.History[0].MeanLoss))
	}
}

// reseal recomputes the CRC trailer after a deliberate mutation, so tests
// reach the section parser instead of stopping at the checksum gate.
func reseal(blob []byte) []byte {
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.Checksum(blob[:len(blob)-4], crcTable))
	return blob
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	snap := testSnapshot()
	blob, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty":     {func(b []byte) []byte { return nil }, ErrTruncated},
		"too short": {func(b []byte) []byte { return b[:8] }, ErrTruncated},
		"bad magic": {func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic},
		"future version": {func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], Version+1)
			return b
		}, ErrVersion},
		"reserved flags": {func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:8], 1)
			return reseal(b)
		}, ErrMalformed},
		"flipped payload byte": {func(b []byte) []byte { b[20] ^= 0xff; return b }, ErrChecksum},
		"truncated tail":       {func(b []byte) []byte { return b[:len(b)-9] }, ErrChecksum},
		"huge section length": {func(b []byte) []byte {
			// First section header sits right after the frame header.
			binary.LittleEndian.PutUint64(b[headerSize+1:], 1<<60)
			return reseal(b)
		}, ErrMalformed},
		"absurd section count": {func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 1<<30)
			return reseal(b)
		}, ErrMalformed},
	}
	for name, c := range cases {
		in := c.mutate(append([]byte(nil), blob...))
		if _, err := DecodeSnapshot(in); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// hugeVectorBlob is a tiny snapshot whose state section declares a
// gigantic global vector.
func hugeVectorBlob() []byte {
	e := newEncoder(nil, 64)
	s := e.begin(secMeta)
	e.buf = append(e.buf, "{}"...)
	e.end(s)
	s = e.begin(secState)
	e.i64(0)       // round
	e.i64(1 << 55) // claims ~2^58 bytes of floats
	e.end(s)
	return e.finish().buf
}

// TestDecodeNeverOverAllocates: a tiny blob declaring a gigantic vector
// must fail on the length check, not attempt the allocation.
func TestDecodeNeverOverAllocates(t *testing.T) {
	if _, err := DecodeSnapshot(hugeVectorBlob()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// retiredKindBlob is a well-formed frame whose one section has a kind the
// format no longer assigns: 2 and 5 belonged to standalone vector and
// tensor blobs, 7 to incremental snapshots.
func retiredKindBlob(kind byte) []byte {
	e := newEncoder(nil, 32)
	s := e.begin(kind)
	e.i64(0)
	e.end(s)
	return e.finish().buf
}

// TestDecodeWrongEntryPoint: a frame carrying a retired section kind is
// not a snapshot; an incremental one says so by name.
func TestDecodeWrongEntryPoint(t *testing.T) {
	for kind, want := range map[byte]error{2: ErrMalformed, 5: ErrMalformed, 7: ErrRetiredIncremental} {
		if _, err := DecodeSnapshot(retiredKindBlob(kind)); !errors.Is(err, want) {
			t.Fatalf("DecodeSnapshot(section kind %d) = %v, want %v", kind, err, want)
		}
	}
}

// spliceBeforeTrailer inserts junk between the last section and the CRC
// trailer, resealing the checksum — a frame only the strict whole-body
// check can reject, since every section still parses and the CRC holds.
func spliceBeforeTrailer(blob, junk []byte) []byte {
	out := append([]byte(nil), blob[:len(blob)-trailerSize]...)
	out = append(out, junk...)
	out = append(out, make([]byte, trailerSize)...)
	return reseal(out)
}

// TestDecodeRejectsTrailingBytes: the declared sections must consume the
// whole body. Spare CRC-valid bytes would mean two different byte strings
// decode to the same state, breaking decode injectivity.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	junk := []byte{0xde, 0xad, 0xbe}
	snap, err := EncodeSnapshot(testSnapshot())
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	if _, err := DecodeSnapshot(spliceBeforeTrailer(snap, junk)); !errors.Is(err, ErrMalformed) {
		t.Errorf("snapshot: err = %v, want ErrMalformed", err)
	}
}

// TestDecodeSnapshotRejectsDuplicateSections: every snapshot section kind
// is single-occurrence; a duplicate (where last-one-wins would silently
// drop data) must be malformed, matching the meta/state guards.
func TestDecodeSnapshotRejectsDuplicateSections(t *testing.T) {
	build := func(dup byte) []byte {
		e := newEncoder(nil, 64)
		sec := e.begin(secMeta)
		e.buf = append(e.buf, []byte(`{"seed":1}`)...)
		e.end(sec)
		sec = e.begin(secState)
		e.i64(0)
		appendVectorPayload(e, []float64{1})
		e.end(sec)
		for i := 0; i < 2; i++ {
			sec = e.begin(dup)
			switch dup {
			case secHistory:
				e.u32(0)
			case secCounts:
				e.i64(0)
			}
			e.end(sec)
		}
		return e.finish().buf
	}
	for name, kind := range map[string]byte{"history": secHistory, "counts": secCounts} {
		if _, err := DecodeSnapshot(build(kind)); !errors.Is(err, ErrMalformed) {
			t.Errorf("duplicate %s: err = %v, want ErrMalformed", name, err)
		}
	}
}
