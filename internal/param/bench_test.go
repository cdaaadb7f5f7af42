package param

import (
	"math"
	"math/rand"
	"testing"
)

// benchPair builds the two update shapes the codec sees: a training step
// (every weight nudged, XOR words of 6–8 bytes) and full-entropy words
// (9–10 bytes, the byte-loop path).
func benchPair(n int, random bool) (ref, v Vector) {
	rng := rand.New(rand.NewSource(42))
	ref, v = make(Vector, n), make(Vector, n)
	for i := range ref {
		ref[i] = rng.NormFloat64()
		if random {
			v[i] = math.Float64frombits(rng.Uint64())
		} else {
			v[i] = ref[i] + 1e-3*rng.NormFloat64()
		}
	}
	return ref, v
}

func benchCodec(b *testing.B, random bool) {
	const n = 1 << 18
	ref, v := benchPair(n, random)
	var d Delta
	b.Run("diff", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DiffInto(&d, ref, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	out := make(Vector, n)
	b.Run("apply", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.ApplyInto(out, ref); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDeltaTrainingStep(b *testing.B) { benchCodec(b, false) }
func BenchmarkDeltaRandomWords(b *testing.B)  { benchCodec(b, true) }
