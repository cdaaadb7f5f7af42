package param

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Typed delta-codec errors. Apply never panics and never allocates more
// than Len implies, whatever bytes it is handed — hostile input from the
// wire or a corrupt snapshot yields one of these, wrapped with context.
var (
	// ErrLenMismatch marks a delta applied to (or diffed from) a vector of
	// the wrong length.
	ErrLenMismatch = errors.New("param: delta length does not match the reference vector")
	// ErrCorrupt marks a delta payload that is not a canonical encoding:
	// truncated, trailing bytes, impossible run lengths, zero words inside
	// a literal run, or non-minimal varints.
	ErrCorrupt = errors.New("param: corrupt delta payload")
)

// Delta is the lossless encoded difference between a Vector and a
// reference Vector (see the package comment for the format). The zero
// value is not meaningful; build one with DiffInto.
//
// Neither the wire nor the checkpoint store uses it any more: its one
// remaining caller is the benchmark harness, whose param.diff_us,
// param.apply_us and param.delta_ratio probes (bench/probes.go) time
// DiffInto and ApplyInto. It goes when those probes do.
type Delta struct {
	// Len is the element count of the vectors the delta relates.
	Len int
	// Bits is the canonical zero-run/varint encoding of the per-element
	// IEEE-754 XOR words.
	Bits []byte
}

// Size returns the encoded payload size in bytes — the wire cost of
// shipping this delta, as opposed to DenseSize for the full vector.
func (d *Delta) Size() int { return len(d.Bits) }

// DenseSize returns the raw cost of the dense vector the delta stands in
// for: 8 bytes per element.
func (d *Delta) DenseSize() int { return 8 * d.Len }

// DiffInto encodes v against ref into a caller-owned Delta. The two
// vectors must have the same length; reconstruction via Apply(ref) is
// bit-identical to v. dst.Bits' capacity is reused, so steady-state round
// loops encode without allocating. dst's previous contents are discarded;
// on error dst is left unusable and must not be applied.
//
// Literal words take a word-at-a-time path (putWord56) whenever the XOR
// word fits 56 bits and eight bytes of buffer remain; the byte loop covers
// 9–10-byte words and the last bytes of the buffer. Either way the bytes
// are the canonical minimal varints, so the encoding is unchanged. The
// buffer grows only when the next write would not fit, and then by what
// the rest of the literal run is expected to need (eight bytes a word:
// a training step's words are 7–8 bytes), so a fresh encode sizes itself
// in one or two steps instead of doubling up from nothing.
func DiffInto(dst *Delta, ref, v Vector) error {
	if len(ref) != len(v) {
		return fmt.Errorf("%w: reference has %d elements, vector has %d", ErrLenMismatch, len(ref), len(v))
	}
	dst.Len = len(v)
	buf := dst.Bits[:cap(dst.Bits)] // written up to pos; the rest is room
	pos := 0
	i := 0
	for i < len(v) {
		zeros := i
		for i < len(v) && math.Float64bits(v[i]) == math.Float64bits(ref[i]) {
			i++
		}
		zeroRun := i - zeros
		lits := i
		for i < len(v) && math.Float64bits(v[i]) != math.Float64bits(ref[i]) {
			i++
		}
		hdr := uvarintLen(uint64(zeroRun)) + uvarintLen(uint64(i-lits))
		buf = reserve(buf, pos, hdr, hdr+8*(i-lits)+8)
		pos += binary.PutUvarint(buf[pos:], uint64(zeroRun))
		pos += binary.PutUvarint(buf[pos:], uint64(i-lits))
		for j := lits; j < i; j++ {
			w := math.Float64bits(v[j]) ^ math.Float64bits(ref[j])
			if w < 1<<56 && pos+8 <= len(buf) {
				pos += putWord56(buf[pos:], w)
				continue
			}
			n := uvarintLen(w)
			buf = reserve(buf, pos, n, n+8*(i-j))
			pos += binary.PutUvarint(buf[pos:], w)
		}
	}
	dst.Bits = buf[:pos]
	return nil
}

// reserve returns buf with at least need bytes of room after pos, growing
// it to want bytes of room (keeping buf[:pos]) only when need does not fit.
func reserve(buf []byte, pos, need, want int) []byte {
	if len(buf)-pos >= need {
		return buf
	}
	buf = slices.Grow(buf[:pos], want)
	return buf[:cap(buf)]
}

// uvarintLen is the length of x's minimal LEB128 form.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

const (
	low7  = 0x7f7f7f7f7f7f7f7f // the payload bits of eight varint bytes
	cont8 = 0x8080808080808080 // their continuation bits
)

// putWord56 writes the minimal varint of w (non-zero, below 2^56, so at
// most eight bytes) with one 8-byte store and returns its length; b must
// hold eight bytes, of which those past the returned length are scratch.
// The seven-bit groups are spread to one per byte in three mask-shift
// steps (28|28 bits to the 32-bit halves, 14|14 to the 16-bit quarters,
// 7|7 to the bytes), then every byte but the last gets its continuation
// bit.
func putWord56(b []byte, w uint64) int {
	n := uvarintLen(w)
	x := w&0x0fffffff | w&0x00fffffff0000000<<4
	x = x&0x00003fff00003fff | x&0x0fffc0000fffc000<<2
	x = x&0x007f007f007f007f | x&0x3f803f803f803f80<<1
	binary.LittleEndian.PutUint64(b, x|cont8&(1<<(8*(n-1))-1))
	return n
}

// word56 is putWord56's inverse on the eight bytes x holds in
// little-endian order: it returns the length of the varint they start
// with and that varint's bytes, or n = 0 when it is anything but a
// canonical non-zero word of one to eight bytes (longer, non-minimal,
// zero) — for the byte loop to decode, or reject with its typed error.
// pack7 turns the bytes into the word.
func word56(x uint64) (n int, word uint64) {
	stop := ^x & cont8 // the bytes that end a varint
	if stop == 0 {
		return 0, 0
	}
	n = bits.TrailingZeros64(stop)>>3 + 1
	x &= ^uint64(0) >> (64 - 8*n)
	if x>>(8*(n-1)) == 0 {
		// The top group is zero: a non-minimal form, or the zero word.
		return 0, 0
	}
	return n, x
}

// pack7 closes the gaps between the seven-bit groups of eight varint
// bytes, undoing putWord56's three steps.
func pack7(x uint64) uint64 {
	x &= low7
	x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
	x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
	return x&0x000000000fffffff | x&0x0fffffff00000000>>4
}

// deltaDecoder is a bounds-checked cursor over a delta payload that
// enforces the canonical form: maximal runs, minimal varints, exact
// element count, no trailing bytes.
type deltaDecoder struct {
	bits      []byte
	off       int
	total     int
	remaining int
}

func newDeltaDecoder(d *Delta) *deltaDecoder {
	return &deltaDecoder{bits: d.Bits, total: d.Len, remaining: d.Len}
}

// uvarint reads one minimal-form LEB128 value.
func (dec *deltaDecoder) uvarint() (uint64, error) {
	var v uint64
	for n := 0; n < 10; n++ {
		if dec.off >= len(dec.bits) {
			return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
		}
		b := dec.bits[dec.off]
		dec.off++
		if n == 9 && b > 1 {
			return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
		}
		if b < 0x80 {
			if n > 0 && b == 0 {
				return 0, fmt.Errorf("%w: non-minimal varint", ErrCorrupt)
			}
			return v | uint64(b)<<(7*n), nil
		}
		v |= uint64(b&0x7f) << (7 * n)
	}
	return 0, fmt.Errorf("%w: varint longer than 10 bytes", ErrCorrupt)
}

// block reads one (zeroRun, litCount) header, enforcing run maximality.
func (dec *deltaDecoder) block() (zeros, lits int, err error) {
	z, err := dec.uvarint()
	if err != nil {
		return 0, 0, err
	}
	l, err := dec.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if z > uint64(dec.remaining) || l > uint64(dec.remaining)-z {
		return 0, 0, fmt.Errorf("%w: run of %d+%d elements, %d remain", ErrCorrupt, z, l, dec.remaining)
	}
	switch {
	case z == 0 && l == 0:
		return 0, 0, fmt.Errorf("%w: empty block", ErrCorrupt)
	case z == 0 && l > 0 && dec.remaining != dec.total:
		// Only the first block may start with no zeros; a later block with
		// zeroRun 0 should have been merged into the previous literal run.
		return 0, 0, fmt.Errorf("%w: zero-length zero run after the first block", ErrCorrupt)
	case l == 0 && z != uint64(dec.remaining):
		// A block with no literals is only canonical as the final trailing-
		// zeros block; anything else splits one zero run in two.
		return 0, 0, fmt.Errorf("%w: literal-free block before the end", ErrCorrupt)
	}
	dec.remaining -= int(z) + int(l)
	return int(z), int(l), nil
}

// word reads one literal XOR word, which canonically is never zero.
func (dec *deltaDecoder) word() (uint64, error) {
	w, err := dec.uvarint()
	if err != nil {
		return 0, err
	}
	if w == 0 {
		return 0, fmt.Errorf("%w: zero word in a literal run", ErrCorrupt)
	}
	return w, nil
}

func (dec *deltaDecoder) finish() error {
	if dec.off != len(dec.bits) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(dec.bits)-dec.off)
	}
	return nil
}

// Apply reconstructs the vector d encodes against ref — bit-identical to
// the vector originally passed to DiffInto. ref is never modified. Length
// mismatches yield ErrLenMismatch; any non-canonical payload yields
// ErrCorrupt.
func (d *Delta) Apply(ref Vector) (Vector, error) {
	return d.ApplyInto(nil, ref)
}

// ApplyInto is Apply decoding into scratch when it has exactly d.Len
// elements (any other length — including nil — allocates fresh), so round
// loops can reuse one decode buffer per client slot. Every element of the
// result is overwritten on success; on error the scratch contents are
// unspecified and the returned vector is nil. scratch must not alias ref.
func (d *Delta) ApplyInto(scratch, ref Vector) (Vector, error) {
	if d.Len != len(ref) {
		return nil, fmt.Errorf("%w: delta encodes %d elements, reference has %d", ErrLenMismatch, d.Len, len(ref))
	}
	out := scratch
	if out == nil || len(out) != d.Len {
		out = make(Vector, d.Len)
	}
	dec := newDeltaDecoder(d)
	i := 0
	for dec.remaining > 0 {
		zeros, lits, err := dec.block()
		if err != nil {
			return nil, err
		}
		copy(out[i:i+zeros], ref[i:i+zeros])
		i += zeros
		for end := i + lits; i < end; i++ {
			// Word at a time while eight bytes remain and they start with a
			// canonical word of at most eight; dec.word takes everything
			// else, and is what rejects it.
			if dec.off+8 <= len(dec.bits) {
				if n, x := word56(binary.LittleEndian.Uint64(dec.bits[dec.off:])); n > 0 {
					dec.off += n
					out[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ pack7(x))
					continue
				}
			}
			w, err := dec.word()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ w)
		}
	}
	if err := dec.finish(); err != nil {
		return nil, err
	}
	return out, nil
}
