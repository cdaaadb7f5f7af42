package param

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The word-at-a-time paths of DiffInto and ApplyInto must be invisible:
// same bytes out, same vectors back, same typed errors. The oracles below
// are the byte loops the codec shipped with.

// byteLoopDiff is the original encoder: one AppendUvarint per value.
func byteLoopDiff(ref, v Vector) []byte {
	var out []byte
	for i := 0; i < len(v); {
		zeros := i
		for i < len(v) && math.Float64bits(v[i]) == math.Float64bits(ref[i]) {
			i++
		}
		lits := i
		for i < len(v) && math.Float64bits(v[i]) != math.Float64bits(ref[i]) {
			i++
		}
		out = binary.AppendUvarint(out, uint64(lits-zeros))
		out = binary.AppendUvarint(out, uint64(i-lits))
		for j := lits; j < i; j++ {
			out = binary.AppendUvarint(out, math.Float64bits(v[j])^math.Float64bits(ref[j]))
		}
	}
	return out
}

// byteLoopApply is the original decoder: every word through dec.word.
func byteLoopApply(d *Delta, ref Vector) (Vector, error) {
	if d.Len != len(ref) {
		return nil, ErrLenMismatch
	}
	out := make(Vector, d.Len)
	dec := newDeltaDecoder(d)
	i := 0
	for dec.remaining > 0 {
		zeros, lits, err := dec.block()
		if err != nil {
			return nil, err
		}
		copy(out[i:i+zeros], ref[i:i+zeros])
		i += zeros
		for j := 0; j < lits; j++ {
			w, err := dec.word()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ w)
			i++
		}
	}
	return out, dec.finish()
}

// checkAgainstByteLoops encodes v against ref into buffers of every
// interesting capacity and decodes the result, comparing with the oracles.
func checkAgainstByteLoops(t *testing.T, ref, v Vector) {
	t.Helper()
	want := byteLoopDiff(ref, v)
	// Capacity 0 (first use), exact (the last words have no eight bytes of
	// room), exact+1…+9 (the window closes mid-run), and ample.
	caps := []int{0, len(want) + 64}
	for extra := 0; extra <= 9; extra++ {
		caps = append(caps, len(want)+extra)
	}
	for _, c := range caps {
		d := &Delta{Bits: make([]byte, 0, c)}
		if err := DiffInto(d, ref, v); err != nil {
			t.Fatalf("cap %d: DiffInto: %v", c, err)
		}
		if d.Len != len(v) || string(d.Bits) != string(want) {
			t.Fatalf("cap %d: DiffInto wrote\n %x\nbyte loop wrote\n %x", c, d.Bits, want)
		}
		if c >= len(want) && c > 0 && cap(d.Bits) != c {
			t.Fatalf("cap %d: buffer that fits was regrown to %d", c, cap(d.Bits))
		}
	}
	d := &Delta{Len: len(v), Bits: want}
	got, err := d.ApplyInto(make(Vector, len(v)), ref)
	if err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	slow, err := byteLoopApply(d, ref)
	if err != nil {
		t.Fatalf("byte-loop apply: %v", err)
	}
	if !bitsEqual(got, slow) || !bitsEqual(got, v) {
		t.Fatalf("ApplyInto decoded %v, byte loop %v, want %v", got, slow, v)
	}
}

// boundaryWords are the smallest and largest XOR words of every varint
// length from 1 to 10 bytes.
func boundaryWords() []uint64 {
	words := []uint64{1, math.MaxUint64, 1 << 63}
	for k := 1; k <= 9; k++ {
		words = append(words, 1<<(7*k)-1, 1<<(7*k))
	}
	return words
}

// TestWordPathMatchesByteLoop places every boundary word at every distance
// 0–9 bytes from the end of Bits (one-byte words fill the gap), alone and
// behind a zero run, and checks both directions against the byte loops.
func TestWordPathMatchesByteLoop(t *testing.T) {
	for _, w := range boundaryWords() {
		for tail := 0; tail <= 9; tail++ {
			for _, lead := range []int{0, 3} {
				n := lead + 1 + tail
				ref := make(Vector, n) // all +0: v's bits are the XOR words
				v := make(Vector, n)
				v[lead] = math.Float64frombits(w)
				for i := lead + 1; i < n; i++ {
					v[i] = math.Float64frombits(uint64(1 + i%127))
				}
				checkAgainstByteLoops(t, ref, v)
			}
		}
	}
}

// TestWordPathMatchesByteLoopRandom mixes word lengths, run lengths and
// references at random.
func TestWordPathMatchesByteLoopRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		ref, v := make(Vector, n), make(Vector, n)
		for i := range ref {
			ref[i] = math.Float64frombits(rng.Uint64())
			switch rng.Intn(3) {
			case 0:
				v[i] = ref[i]
			default:
				w := rng.Uint64() >> uint(rng.Intn(64))
				v[i] = math.Float64frombits(math.Float64bits(ref[i]) ^ w)
			}
		}
		checkAgainstByteLoops(t, ref, v)
	}
}

// TestWordPathRejectsLikeByteLoop puts each non-canonical form where the
// eight-byte window sees it — first, in the middle and last in the window,
// with valid words before and after — and requires the byte loop's exact
// typed error.
func TestWordPathRejectsLikeByteLoop(t *testing.T) {
	bad := map[string][]byte{
		"non-minimal-2":   {0x81, 0x00},
		"non-minimal-8":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x00},
		"non-minimal-9":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
		"zero-word":       {0x00},
		"overflow":        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"longer-than-ten": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	for name, word := range bad {
		for before := 0; before <= 8; before++ {
			for _, after := range []int{0, 1, 7, 8, 16} {
				lits := before + 1 + after
				bits := []byte{0, byte(lits)}
				for i := 0; i < before; i++ {
					bits = append(bits, 0x7f)
				}
				bits = append(bits, word...)
				for i := 0; i < after; i++ {
					bits = append(bits, 0x7f)
				}
				expectSameError(t, name, &Delta{Len: lits, Bits: bits})
			}
		}
	}
	// Truncation: a run that ends inside a word, the cut at every distance
	// from the last whole word.
	good := byteLoopDiff(make(Vector, 12), func() Vector {
		v := make(Vector, 12)
		for i := range v {
			v[i] = math.Float64frombits(1<<(7*(i%8)+3) | 1)
		}
		return v
	}())
	for cut := 2; cut < len(good); cut++ {
		expectSameError(t, "truncated", &Delta{Len: 12, Bits: good[:cut:cut]})
	}
	// Trailing bytes after a complete payload, inside what would have been
	// the last word's window.
	for extra := 1; extra <= 9; extra++ {
		expectSameError(t, "trailing", &Delta{Len: 12, Bits: append(good[:len(good):len(good)], make([]byte, extra)...)})
	}
}

func expectSameError(t *testing.T, name string, d *Delta) {
	t.Helper()
	ref := make(Vector, d.Len)
	_, want := byteLoopApply(d, ref)
	got, err := d.ApplyInto(nil, ref)
	if want == nil {
		t.Fatalf("%s: byte loop accepted %x", name, d.Bits)
	}
	if err == nil || got != nil {
		t.Fatalf("%s: ApplyInto accepted %x (byte loop: %v)", name, d.Bits, want)
	}
	if !errors.Is(err, ErrCorrupt) || err.Error() != want.Error() {
		t.Fatalf("%s: %x\n ApplyInto: %v\n byte loop: %v", name, d.Bits, err, want)
	}
}
