package param

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// edgeBits are float64 bit patterns a per-element conversion could get
// wrong: both zeros, quiet and signalling NaNs with payloads, both
// infinities, denormals and the extremes.
var edgeBits = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // −0
	0x7ff8000000000000, // quiet NaN
	0x7ff8dead0000beef, // quiet NaN, payload
	0xfff8000000000001, // negative quiet NaN, payload
	0x7ff0000000000001, // signalling NaN
	0x7ff4000000c0ffee, // signalling NaN, payload
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // −Inf
	0x0000000000000001, // smallest denormal
	0x800fffffffffffff, // largest negative denormal
	0x0010000000000000, // smallest normal
	0x7fefffffffffffff, // largest finite
	0xffefffffffffffff, // most negative finite
	0x3ff0000000000001, // 1 + ulp
}

// TestBytesIsTheLittleEndianEncoding: the view holds exactly what encoding
// each element with binary.LittleEndian would, and writing through it sets
// those exact bits.
func TestBytesIsTheLittleEndianEncoding(t *testing.T) {
	v := make(Vector, len(edgeBits))
	var want []byte
	for i, b := range edgeBits {
		v[i] = math.Float64frombits(b)
		want = binary.LittleEndian.AppendUint64(want, b)
	}
	if got := Bytes(v); !bytes.Equal(got, want) {
		t.Fatalf("view = %x\nwant   %x", got, want)
	}

	w := make(Vector, len(edgeBits))
	copy(Bytes(w), want)
	for i, b := range edgeBits {
		if got := math.Float64bits(w[i]); got != b {
			t.Fatalf("element %d written through the view = %#016x, want %#016x", i, got, b)
		}
	}
	if view := Bytes(w[3:5]); &view[0] != &Bytes(w)[24] || len(view) != 16 {
		t.Fatal("the view of a window must be that window's bytes")
	}
}

// TestBytesOfNothing: a nil and an empty vector give an empty view.
func TestBytesOfNothing(t *testing.T) {
	for _, v := range []Vector{nil, {}, make(Vector, 4)[:0]} {
		if b := Bytes(v); len(b) != 0 {
			t.Fatalf("Bytes of a %d-element vector has %d bytes", len(v), len(b))
		}
	}
}
