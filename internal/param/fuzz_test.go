package param

import (
	"math"
	"testing"
)

// FuzzDeltaApply is the decoder-hardening gate, mirroring the
// internal/store convention: arbitrary payload bytes applied against a
// fuzzer-chosen reference must never panic or over-allocate — they either
// decode to a vector of exactly the reference's length or return a typed
// error. Additional discovered seeds live in testdata/fuzz/FuzzDeltaApply.
func FuzzDeltaApply(f *testing.F) {
	good, _ := diff(Vector{1, 2, 3, 4}, Vector{1, 9, 3, 4})
	f.Add(4, uint64(0x3ff0000000000000), good.Bits)
	f.Add(0, uint64(0), []byte(nil))
	f.Add(3, uint64(0x7ff8deadbeef0001), []byte{0, 3, 1, 2, 3})
	f.Add(8, uint64(42), []byte{8, 0})
	f.Add(2, uint64(1), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, n int, refBits uint64, bits []byte) {
		if n < 0 || n > 1<<12 {
			return
		}
		ref := make(Vector, n)
		for i := range ref {
			ref[i] = math.Float64frombits(refBits ^ uint64(i))
		}
		d := &Delta{Len: n, Bits: bits}
		v, err := d.Apply(ref)
		if (v == nil) == (err == nil) {
			t.Fatalf("Apply returned vector=%v err=%v", v, err)
		}
		if err != nil {
			return
		}
		if len(v) != n {
			t.Fatalf("decoded %d elements, want %d", len(v), n)
		}
		// A payload Apply accepts must be canonical: re-encoding the decoded
		// vector reproduces the input bytes exactly (decode is injective).
		re, derr := diff(ref, v)
		if derr != nil {
			t.Fatalf("re-Diff: %v", derr)
		}
		if string(re.Bits) != string(bits) {
			t.Fatalf("accepted non-canonical payload: %x decodes, canonical form is %x", bits, re.Bits)
		}
	})
}

// FuzzDeltaRoundTrip checks the inverse property: any pair of bit
// patterns the fuzzer can describe — NaN payloads, ±0, denormals —
// round-trips bit-identically through Diff/Apply.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint64(0x7ff8deadbeef0001), uint64(0x8000000000000000), uint64(1), 5)
	f.Add(uint64(0), uint64(0), uint64(0x000fffffffffffff), 1)
	f.Add(uint64(0x3ff0000000000000), uint64(0x3ff0000000000001), uint64(0x7ff0000000000000), 64)
	f.Fuzz(func(t *testing.T, a, b, c uint64, n int) {
		if n < 0 || n > 1<<10 {
			return
		}
		ref := make(Vector, n)
		v := make(Vector, n)
		for i := range ref {
			ref[i] = math.Float64frombits(a + uint64(i)*c)
			switch i % 3 {
			case 0:
				v[i] = ref[i]
			case 1:
				v[i] = math.Float64frombits(b ^ uint64(i))
			default:
				v[i] = math.Float64frombits(c * uint64(i))
			}
		}
		d, err := diff(ref, v)
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		got, err := d.Apply(ref)
		if err != nil {
			t.Fatalf("Apply rejected its own encoding: %v", err)
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("element %d: got bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
			}
		}
	})
}
