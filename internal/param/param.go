// Package param is the update plane's typed parameter representation: the
// Vector every layer of the runtime exchanges instead of bare []float64
// slices, the lossless Delta encoding that makes per-round traffic scale
// with what changed rather than with model size, and the Shard helper that
// dispatches element-range reductions onto the shared tensor kernel pool.
//
// # Delta format
//
// A Delta is the bit-exact difference between a vector and a reference
// vector both sides already hold (the round's global model). Per element,
// the encoder XORs the two IEEE-754 bit patterns; elements that did not
// change XOR to zero, and elements that moved only slightly XOR to a word
// whose high (sign/exponent/upper-mantissa) bits are zero. The word
// sequence is then run/varint coded:
//
//	uvarint zeroRun   elements unchanged from the reference
//	uvarint litCount  changed elements that follow
//	litCount × uvarint(xorWord)
//	… repeated until exactly Len elements are consumed
//
// Unchanged elements cost amortized fractions of a byte, slightly-changed
// elements 4–7 bytes instead of 8, and the encoding is canonical: the
// encoder emits maximal runs and minimal varints, and Apply rejects
// anything else (trailing bytes, truncation, zero words hiding in literal
// runs, non-minimal varints), so exactly one byte string decodes to any
// given delta. Reconstruction is pure XOR — bit-identical for every
// payload including NaN bit patterns, ±0 and denormals — which is what
// lets compressed updates preserve the repo's 0-ULP and kill/resume
// bit-identity guarantees.
package param

import "math"

// Vector is a model parameter vector in nn.Values layout: a model's
// parameters in Params() order, and for a laid-out model its storage. It is
// a named slice type, so existing []float64 values convert freely; the name is the
// update plane's contract marker: anything typed Vector may be carried as
// a Delta on the wire or in an incremental snapshot.
type Vector []float64

// Clone returns an independent copy of v (nil stays nil).
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	return append(Vector(nil), v...)
}

// L2Dist returns the Euclidean distance ‖a−b‖₂ over the common prefix of
// a and b (callers are expected to pass equal-length vectors; the prefix
// rule keeps the helper total). The accumulation is a single serial
// left-to-right loop, so the result is bit-deterministic regardless of
// kernel pool size — which is what lets the health plane's update-norm
// detectors promise identical verdicts at any worker count.
func L2Dist(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
