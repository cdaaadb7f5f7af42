package param

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports bit-identity, the only equality the update plane
// accepts (== would conflate NaN payloads and ±0).
func bitsEqual(a, b Vector) bool {
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

// diff is DiffInto into a fresh Delta.
func diff(ref, v Vector) (*Delta, error) {
	d := &Delta{}
	if err := DiffInto(d, ref, v); err != nil {
		return nil, err
	}
	return d, nil
}

func roundTrip(t *testing.T, ref, v Vector) *Delta {
	t.Helper()
	d, err := diff(ref, v)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	got, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bitsEqual(got, v) {
		t.Fatalf("round trip not bit-identical:\n ref=%v\n   v=%v\n got=%v", ref, v, got)
	}
	return d
}

// TestDeltaRoundTripAdversarial pins bit-exact reconstruction on the float
// patterns that break "close enough" codecs: NaNs with distinct payloads,
// signed zeros, denormals, infinities and full-range magnitudes.
func TestDeltaRoundTripAdversarial(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8_dead_beef_0001)
	nanB := math.Float64frombits(0x7ff8_0000_0000_0042)
	denorm := math.Float64frombits(1)                      // smallest positive denormal
	denorm2 := math.Float64frombits(0x000f_ffff_ffff_ffff) // largest denormal
	cases := []struct {
		name   string
		ref, v Vector
	}{
		{"identical", Vector{1, 2, 3}, Vector{1, 2, 3}},
		{"empty", Vector{}, Vector{}},
		{"nan-payloads", Vector{nanA, 0, nanA}, Vector{nanB, nanA, nanA}},
		{"signed-zero", Vector{0, math.Copysign(0, -1)}, Vector{math.Copysign(0, -1), 0}},
		{"denormals", Vector{0, denorm, 1}, Vector{denorm, denorm2, 1}},
		{"infinities", Vector{math.Inf(1), 1}, Vector{math.Inf(-1), math.Inf(1)}},
		{"extremes", Vector{math.MaxFloat64, -math.MaxFloat64}, Vector{-math.MaxFloat64, math.SmallestNonzeroFloat64}},
		{"leading-zeros", Vector{1, 2, 3, 4}, Vector{1, 2, 9, 9}},
		{"trailing-zeros", Vector{1, 2, 3, 4}, Vector{9, 9, 3, 4}},
		{"alternating", Vector{1, 2, 3, 4, 5}, Vector{9, 2, 9, 4, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roundTrip(t, c.ref, c.v)
		})
	}
}

// TestDeltaRoundTripRandom sweeps random trajectories: SGD-like nudges,
// sparse changes and fully random bit patterns all reconstruct exactly.
func TestDeltaRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		ref := make(Vector, n)
		v := make(Vector, n)
		for i := range ref {
			ref[i] = rng.NormFloat64()
			switch rng.Intn(4) {
			case 0: // unchanged
				v[i] = ref[i]
			case 1: // SGD-like nudge
				v[i] = ref[i] + 1e-3*rng.NormFloat64()
			case 2: // arbitrary bits, NaNs included
				v[i] = math.Float64frombits(rng.Uint64())
			default:
				v[i] = rng.NormFloat64()
			}
		}
		roundTrip(t, ref, v)
	}
}

// TestDeltaCompression pins the size behavior the wire relies on: sparse
// and close updates compress, unchanged vectors are nearly free.
func TestDeltaCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 10000
	ref := make(Vector, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}

	same := ref.Clone()
	d := roundTrip(t, ref, same)
	if d.Size() > 8 {
		t.Errorf("unchanged vector encodes to %d bytes, want a few", d.Size())
	}

	sparse := ref.Clone()
	for i := 0; i < n; i += 20 { // 5% changed
		sparse[i] = rng.NormFloat64()
	}
	d = roundTrip(t, ref, sparse)
	if d.Size() >= d.DenseSize()/2 {
		t.Errorf("5%%-changed vector encodes to %d bytes, dense is %d", d.Size(), d.DenseSize())
	}

	close := ref.Clone()
	for i := range close {
		close[i] += 1e-9 * ref[i]
	}
	d = roundTrip(t, ref, close)
	if d.Size() >= d.DenseSize() {
		t.Errorf("close vector encodes to %d bytes, dense is %d", d.Size(), d.DenseSize())
	}

	// An SGD step at a realistic learning rate moves every weight in its
	// low mantissa bits only: less to save than above, but still a saving.
	sgd := ref.Clone()
	for i := range sgd {
		sgd[i] += 1e-3 * rng.NormFloat64()
	}
	d = roundTrip(t, ref, sgd)
	if d.Size() >= d.DenseSize() {
		t.Errorf("SGD-step vector encodes to %d bytes, dense is %d", d.Size(), d.DenseSize())
	}

	// A partial exchange (only the first tenth trained) is one long zero run.
	head := ref.Clone()
	for i := 0; i < n/10; i++ {
		head[i] += 1e-3 * rng.NormFloat64()
	}
	d = roundTrip(t, ref, head)
	if d.Size() >= d.DenseSize()/5 {
		t.Errorf("10%%-head vector encodes to %d bytes, dense is %d", d.Size(), d.DenseSize())
	}
}

func TestDiffLenMismatch(t *testing.T) {
	if _, err := diff(Vector{1}, Vector{1, 2}); err == nil {
		t.Fatal("Diff accepted mismatched lengths")
	}
	d, err := diff(Vector{1, 2}, Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Vector{1}); err == nil {
		t.Fatal("Apply accepted a reference of the wrong length")
	}
}

// TestDeltaRejectsNonCanonical walks the decoder gates: truncation,
// trailing bytes, zero literals, split runs and non-minimal varints must
// all be rejected, so exactly one byte string decodes to any delta.
func TestDeltaRejectsNonCanonical(t *testing.T) {
	ref := Vector{1, 2, 3, 4}
	good, err := diff(ref, Vector{1, 9, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	reject := func(name string, d *Delta) {
		t.Helper()
		if _, err := d.Apply(ref); err == nil {
			t.Errorf("%s: Apply accepted a non-canonical payload", name)
		}
	}
	reject("truncated", &Delta{Len: good.Len, Bits: good.Bits[:len(good.Bits)-1]})
	reject("trailing", &Delta{Len: good.Len, Bits: append(good.Bits[:len(good.Bits):len(good.Bits)], 0)})
	reject("empty-bits", &Delta{Len: 4, Bits: nil})
	reject("empty-block", &Delta{Len: 4, Bits: []byte{0, 0, 4, 0}})
	// zeroRun 4 followed by literals past the end.
	reject("overrun", &Delta{Len: 4, Bits: []byte{4, 1, 7}})
	// A zero XOR word inside a literal run (canonically part of a zero run).
	reject("zero-literal", &Delta{Len: 4, Bits: []byte{0, 2, 7, 0, 2, 0}})
	// Literal-free block that is not the trailing-zeros block.
	reject("split-zero-run", &Delta{Len: 4, Bits: []byte{1, 0, 3, 0}})
	// zeroRun 0 on a non-first block (should merge with previous literals).
	reject("split-literal-run", &Delta{Len: 4, Bits: []byte{0, 1, 7, 0, 1, 9, 2, 0}})
	// Non-minimal varint: 1 encoded as 0x81 0x00.
	reject("non-minimal-varint", &Delta{Len: 4, Bits: []byte{0x81, 0x00, 1, 7, 2, 0}})
	// Varint longer than a uint64.
	reject("varint-overflow", &Delta{Len: 4, Bits: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}})
	reject("negative-len", &Delta{Len: -1, Bits: nil})
}

// TestDeltaEncodingDeterministic pins byte-determinism: the same pair
// always yields the same payload.
func TestDeltaEncodingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := make(Vector, 500)
	v := make(Vector, 500)
	for i := range ref {
		ref[i] = rng.NormFloat64()
		if i%3 == 0 {
			v[i] = ref[i]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	a, _ := diff(ref, v)
	b, _ := diff(ref, v)
	if string(a.Bits) != string(b.Bits) || a.Len != b.Len {
		t.Fatal("Diff is not deterministic")
	}
}
