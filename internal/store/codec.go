package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"calibre/internal/param"
)

// Codec framing constants. Every blob the codec produces is one frame:
//
//	offset  size  field
//	0       4     magic "CLBS"
//	4       2     codec version (little-endian uint16)
//	6       2     flags (reserved, must be zero)
//	8       4     section count (little-endian uint32)
//	12      …     sections: kind (uint8), payload length (uint64), payload
//	end-4   4     CRC32-C of every preceding byte
const (
	// Magic identifies a Calibre binary state blob.
	Magic = "CLBS"
	// Version is the codec version this build reads and writes. Bump it
	// on any incompatible layout change; the decoder rejects others with
	// ErrVersion. v2 added the adversarial/rejected-update counts to
	// history entries.
	Version = 2

	headerSize    = 12
	trailerSize   = 4
	secHeaderSize = 1 + 8
)

// Section kinds of a snapshot frame. The numbers are the on-disk format:
// 2 and 5 belonged to standalone vector and tensor blobs and stay
// unassigned.
const (
	secMeta       byte = 1 // JSON-encoded Meta
	secHistory    byte = 3 // binary-encoded []fl.RoundStats
	secCounts     byte = 4 // int64 count + count little-endian int64s
	secState      byte = 6 // int64 round + vector payload (snapshot global)
	secDeltaState byte = 7 // int64 round + int64 refVersion + delta payload (incremental global)
)

// Typed decode errors. All of them wrap into the error returned to the
// caller; none of them ever panics, and declared lengths are validated
// against the input size before any allocation.
var (
	// ErrBadMagic marks input that is not a Calibre state blob at all.
	ErrBadMagic = errors.New("store: bad magic (not a calibre state blob)")
	// ErrVersion marks a blob written by an incompatible codec version.
	ErrVersion = errors.New("store: unsupported codec version")
	// ErrChecksum marks a blob whose CRC32-C trailer does not match — a
	// torn write or on-disk corruption.
	ErrChecksum = errors.New("store: checksum mismatch (corrupt or torn write)")
	// ErrTruncated marks input too short to hold what its headers declare.
	ErrTruncated = errors.New("store: truncated input")
	// ErrMalformed marks structurally invalid sections: impossible
	// lengths, unknown kinds, or payloads that do not add up.
	ErrMalformed = errors.New("store: malformed section")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// --- Encoding ---------------------------------------------------------------

// encoder builds one frame. Encoding is deterministic: the same state
// always yields byte-identical output (sections are written in a fixed
// order and floats as their exact IEEE-754 bits).
//
// An encoder that lends takes a frame's one model-sized payload — a
// global's memory or a delta's bits — by reference instead of copying it
// into buf: finish then returns the frame as pieces, which a save writes
// one after the other, so the store keeps no model-sized buffer.
type encoder struct {
	buf      []byte
	sections uint32
	lends    bool
	// lent is the payload taken by reference; it belongs at buf offset at.
	lent []byte
	at   int
}

// pieces is an encoded frame: buf[:at], then lent, then buf[at:]. A frame
// built whole is all buf (lent is nil).
type pieces struct {
	buf  []byte
	lent []byte
	at   int
}

// writeTo writes the frame's pieces to w in order.
func (p pieces) writeTo(w io.Writer) error {
	for _, b := range [][]byte{p.buf[:p.at], p.lent, p.buf[p.at:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// newEncoder starts a frame in buf's storage, grown to hold capacity
// payload bytes; a Store passes the buffer of its previous save.
func newEncoder(buf []byte, capacity int) *encoder {
	e := &encoder{buf: slices.Grow(buf[:0], capacity+headerSize+trailerSize)}
	e.buf = append(e.buf, Magic...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, Version)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, 0) // flags, reserved
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // section count, patched by finish
	return e
}

// begin opens a section and returns the payload start offset for end.
func (e *encoder) begin(kind byte) int {
	e.sections++
	e.buf = append(e.buf, kind)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 0) // length, patched by end
	return len(e.buf)
}

// end patches the section length opened at start, counting a payload the
// section took by reference.
func (e *encoder) end(start int) {
	n := len(e.buf) - start
	if e.lent != nil && e.at >= start {
		n += len(e.lent)
	}
	binary.LittleEndian.PutUint64(e.buf[start-8:start], uint64(n))
}

func (e *encoder) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// payload writes a frame's model-sized bytes: appended, or taken by
// reference if the encoder lends. A frame has at most one.
func (e *encoder) payload(b []byte) {
	if e.lends {
		e.lent, e.at = b, len(e.buf)
		return
	}
	e.buf = append(e.buf, b...)
}

// floats writes v's memory as it is (param.Bytes), the float bits in the
// blob's little-endian byte order, as the frame's payload.
func (e *encoder) floats(v []float64) { e.payload(param.Bytes(v)) }

// intVec writes a nil-ness flag, a length and the values; the decoder
// restores nil vs empty exactly (RoundStats semantics distinguish them).
func (e *encoder) intVec(v []int) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

// finish patches the section count, appends the CRC trailer — over the
// pieces in frame order — and returns the completed frame.
func (e *encoder) finish() pieces {
	binary.LittleEndian.PutUint32(e.buf[8:12], e.sections)
	crc := crc32.Update(0, crcTable, e.buf[:e.at])
	crc = crc32.Update(crc, crcTable, e.lent)
	crc = crc32.Update(crc, crcTable, e.buf[e.at:])
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc)
	return pieces{buf: e.buf, lent: e.lent, at: e.at}
}

// --- Decoding ---------------------------------------------------------------

// frame validates the outer envelope (magic, version, flags, CRC) and
// yields sections.
type frame struct {
	buf      []byte
	off, end int
	sections int
}

func parseFrame(data []byte) (*frame, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(data), headerSize+trailerSize)
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("%w: blob has version %d, this build reads %d", ErrVersion, v, Version)
	}
	if f := binary.LittleEndian.Uint16(data[6:8]); f != 0 {
		return nil, fmt.Errorf("%w: reserved flags %#x set", ErrMalformed, f)
	}
	if sum := binary.LittleEndian.Uint32(data[len(data)-4:]); crc32.Checksum(data[:len(data)-4], crcTable) != sum {
		return nil, ErrChecksum
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	body := len(data) - headerSize - trailerSize
	if uint64(n)*secHeaderSize > uint64(body) {
		return nil, fmt.Errorf("%w: %d sections declared in a %d-byte body", ErrMalformed, n, body)
	}
	return &frame{buf: data, off: headerSize, end: len(data) - trailerSize, sections: int(n)}, nil
}

// next returns the next section. The payload slice aliases the input; the
// declared length is checked against the remaining bytes before use, so a
// hostile length can never cause an over-read or an over-allocation.
func (f *frame) next() (kind byte, payload []byte, err error) {
	if f.end-f.off < secHeaderSize {
		return 0, nil, fmt.Errorf("%w: section header past end of body", ErrTruncated)
	}
	kind = f.buf[f.off]
	n := binary.LittleEndian.Uint64(f.buf[f.off+1 : f.off+secHeaderSize])
	f.off += secHeaderSize
	if n > uint64(f.end-f.off) {
		return 0, nil, fmt.Errorf("%w: section kind %d declares %d bytes, %d remain", ErrMalformed, kind, n, f.end-f.off)
	}
	payload = f.buf[f.off : f.off+int(n)]
	f.off += int(n)
	return kind, payload, nil
}

// finish verifies the declared sections consumed the entire body. A
// CRC-valid frame with spare bytes between the last section and the
// trailer is malformed — accepting it would let two different byte
// strings decode to the same state, breaking the determinism contract
// (encode is injective, so decode must be too).
func (f *frame) finish() error {
	if f.off != f.end {
		return fmt.Errorf("%w: %d trailing bytes after the last section", ErrMalformed, f.end-f.off)
	}
	return nil
}

// reader is a bounds-checked cursor over one section payload.
type reader struct {
	p   []byte
	off int
}

func (r *reader) remaining() int { return len(r.p) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: need %d bytes, %d remain", ErrMalformed, n, r.remaining())
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) i64() (int64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) f64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// floats reads exactly n float64s, re-checking n against the remaining
// payload so a missed caller-side validation can never over-allocate.
func (r *reader) floats(n int) ([]float64, error) {
	if n < 0 || n > r.remaining()/8 {
		return nil, fmt.Errorf("%w: %d floats declared, %d bytes remain", ErrMalformed, n, r.remaining())
	}
	b, err := r.bytes(8 * n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	copy(param.Bytes(out), b)
	return out, nil
}

// intVec mirrors encoder.intVec, preserving nil vs empty.
func (r *reader) intVec() ([]int, error) {
	present, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch present {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("%w: int vector presence byte %d", ErrMalformed, present)
	}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n)*8 > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: int vector declares %d entries, %d bytes remain", ErrMalformed, n, r.remaining())
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

// --- Vectors ----------------------------------------------------------------

// A vector payload is an int64 count followed by that many little-endian
// float64s.
func appendVectorPayload(e *encoder, v []float64) {
	e.i64(int64(len(v)))
	e.floats(v)
}

func readVectorPayload(p []byte) ([]float64, error) {
	r := &reader{p: p}
	n, err := r.i64()
	if err != nil {
		return nil, err
	}
	// Compare against remaining/8 (never n*8, which a hostile n overflows).
	if rem := int64(r.remaining()); n < 0 || rem%8 != 0 || n != rem/8 {
		return nil, fmt.Errorf("%w: vector declares %d elements in %d payload bytes", ErrMalformed, n, r.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	return r.floats(int(n))
}

// --- Delta state ------------------------------------------------------------

// deltaRef is the decoded form of a secDeltaState section: the snapshot's
// round plus the reference version and the XOR-delta of the global vector
// against that version's (resolved) global. The delta payload itself is
// validated by param's canonical decoder when it is applied.
type deltaRef struct {
	round      int
	refVersion int
	delta      *param.Delta
}

func appendDeltaStatePayload(e *encoder, round, refVersion int, d *param.Delta) {
	e.i64(int64(round))
	e.i64(int64(refVersion))
	e.i64(int64(d.Len))
	e.payload(d.Bits)
}

func readDeltaStatePayload(p []byte) (*deltaRef, error) {
	r := &reader{p: p}
	round, err := r.i64()
	if err != nil {
		return nil, err
	}
	refVersion, err := r.i64()
	if err != nil {
		return nil, err
	}
	n, err := r.i64()
	if err != nil {
		return nil, err
	}
	if refVersion < 1 || refVersion > 1<<31 {
		return nil, fmt.Errorf("%w: incremental snapshot references version %d", ErrMalformed, refVersion)
	}
	// A tiny payload can legitimately describe a huge unchanged vector (a
	// zero run is 2 bytes whatever its length), so the element count is
	// only sanity-bounded here; Apply checks it against the resolved
	// reference before allocating, so a hostile count cannot over-allocate.
	if n < 0 || n > 1<<48 {
		return nil, fmt.Errorf("%w: incremental snapshot declares %d delta elements", ErrMalformed, n)
	}
	return &deltaRef{
		round:      int(round),
		refVersion: int(refVersion),
		delta:      &param.Delta{Len: int(n), Bits: p[r.off:]},
	}, nil
}
