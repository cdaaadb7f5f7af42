package param

import (
	"math"
	"math/rand"
	"testing"
)

// TestDiffIntoReusesBits pins the encoder's zero-alloc contract: repeated
// DiffInto calls into one Delta reuse the Bits backing array once it has
// grown to steady-state capacity, and each encode matches a fresh Diff
// byte-for-byte.
func TestDiffIntoReusesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := make(Vector, 128)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	scratch := &Delta{}
	for round := 0; round < 5; round++ {
		v := ref.Clone()
		for i := 0; i < len(v); i += 3 {
			v[i] += 1e-7 * float64(round+1)
		}
		var before *byte
		if cap(scratch.Bits) > 0 {
			before = &scratch.Bits[:cap(scratch.Bits)][0]
		}
		if err := DiffInto(scratch, ref, v); err != nil {
			t.Fatalf("round %d: DiffInto: %v", round, err)
		}
		fresh, err := diff(ref, v)
		if err != nil {
			t.Fatalf("round %d: Diff: %v", round, err)
		}
		if scratch.Len != fresh.Len || string(scratch.Bits) != string(fresh.Bits) {
			t.Fatalf("round %d: DiffInto encoding differs from Diff", round)
		}
		if round > 0 && before != nil && cap(scratch.Bits) > 0 && &scratch.Bits[:cap(scratch.Bits)][0] != before {
			t.Fatalf("round %d: Bits backing array was reallocated", round)
		}
		got, err := scratch.Apply(ref)
		if err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				t.Fatalf("round %d: element %d differs after round-trip", round, i)
			}
		}
	}
}

// TestApplyIntoReusesScratch pins the decoder's buffer contract: a scratch
// vector of exactly d.Len is written in place (no allocation), any other
// length gets a fresh vector, and every element of the result is
// overwritten even when the scratch holds stale garbage.
func TestApplyIntoReusesScratch(t *testing.T) {
	ref := Vector{1, 2, 3, 4, 5}
	v := Vector{1, 2.5, 3, 4, 5.5}
	d, err := diff(ref, v)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}

	scratch := make(Vector, len(ref))
	for i := range scratch {
		scratch[i] = math.NaN() // stale garbage must be fully overwritten
	}
	got, err := d.ApplyInto(scratch, ref)
	if err != nil {
		t.Fatalf("ApplyInto: %v", err)
	}
	if &got[0] != &scratch[0] {
		t.Fatal("matching-length scratch was not reused")
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("element %d = %v, want %v", i, got[i], v[i])
		}
	}

	short := make(Vector, 2)
	got, err = d.ApplyInto(short, ref)
	if err != nil {
		t.Fatalf("ApplyInto short scratch: %v", err)
	}
	if len(got) != len(ref) {
		t.Fatalf("decoded %d elements, want %d", len(got), len(ref))
	}
	if &got[0] == &short[0] {
		t.Fatal("wrong-length scratch must not be reused")
	}

	// Nil scratch behaves exactly like Apply, including for empty vectors:
	// a decoded empty vector is non-nil so callers can distinguish it from
	// the nil-vector error case.
	empty, err := diff(Vector{}, Vector{})
	if err != nil {
		t.Fatalf("Diff empty: %v", err)
	}
	out, err := empty.ApplyInto(nil, Vector{})
	if err != nil {
		t.Fatalf("ApplyInto empty: %v", err)
	}
	if out == nil {
		t.Fatal("empty decode returned a nil vector")
	}
}
