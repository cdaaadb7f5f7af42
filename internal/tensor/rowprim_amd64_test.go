//go:build !purego

package tensor

import (
	"math"
	"testing"
)

// TestExpShiftAVX2Covers checks where the assembly hands a group of four to
// math.Exp: never for lanes in [−700, 700] or below −750, and at the group
// holding the first NaN, x > 700 or x in [−750, −700) — so that the oracle
// test's avx2 leg is known to run the vector path on ordinary rows and the
// fallback on the others, rather than math.Exp throughout.
func TestExpShiftAVX2Covers(t *testing.T) {
	if !asmAvailable || !hasFMA {
		t.Skip("no AVX2 and FMA on this CPU: the assembly never runs")
	}
	for n := 0; n <= 13; n++ {
		src := make([]float64, n)
		for i := range src {
			src[i] = [...]float64{-700, 700, 3.5, -751, math.Inf(-1), -1e300, 0, -0.0}[i%8]
		}
		if got := expShiftAVX2(make([]float64, n), src, 0); got != n {
			t.Fatalf("n=%d with every lane covered: the assembly stopped at %d", n, got)
		}
		// The tail's idle lanes hold −shift = 705, which must not count.
		far := make([]float64, n)
		for i := range far {
			far[i] = -1405
		}
		if got := expShiftAVX2(make([]float64, n), far, -705); got != n {
			t.Fatalf("n=%d, shift −705: the assembly stopped at %d", n, got)
		}
		for at := 0; at < n; at++ {
			for _, x := range []float64{math.NaN(), 700.5, math.Inf(1), -750, -700.5} {
				row := append([]float64(nil), src...)
				row[at] = x
				if got, want := expShiftAVX2(make([]float64, n), row, 0), at/4*4; got != want {
					t.Fatalf("n=%d, %v at %d: the assembly stopped at %d, want %d", n, x, at, got, want)
				}
			}
		}
	}
}
