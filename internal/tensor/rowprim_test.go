package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// asmAvailable is useAVX2 as the package initialised it: whether this build
// and this CPU run the assembly row primitives at all.
var asmAvailable = useAVX2

// eachImpl runs f once per implementation of the row primitives — the AVX2
// assembly, then the portable loops — by flipping the package's unexported
// switch, and restores the switch afterwards. Where the assembly cannot run
// (not amd64, the purego tag, no AVX2) that leg is skipped with a logged
// reason and f runs on the portable loops alone.
func eachImpl(t testing.TB, f func(impl string)) {
	t.Helper()
	defer func() { useAVX2 = asmAvailable }()
	if asmAvailable {
		useAVX2 = true
		f("avx2")
	} else {
		t.Log("assembly leg skipped: no AVX2 row primitives on this build or CPU (GOARCH, purego tag, CPUID/XGETBV)")
	}
	useAVX2 = false
	f("generic")
}

// primValues are what the primitive tests draw coefficients and row elements
// from: the oracle's special values, magnitudes whose products overflow and
// underflow, and ordinary numbers.
var primValues = append([]float64{1e300, -1e300, 1e-300, -1e-300, 1, -1, 0.1, -3.75, math.Pi}, specials[:]...)

// primLengths are row lengths around every boundary of the vector loops:
// empty, shorter than a vector, one vector, the eight-element unrolled body
// with and without each tail, and long rows.
var primLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 23, 24, 25, 96, 97, 1024}

// primVals draws n values, about a third of them from primValues. The
// tests slice operands out of such arrays at element offsets 0–3, so that
// rows are 8-byte- but not 32-byte-aligned relative to one another, and
// leave slack after a destination row so that a write past it is seen.
func primVals(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if rng.Intn(3) == 0 {
			vals[i] = primValues[rng.Intn(len(primValues))]
		} else {
			vals[i] = rng.NormFloat64()
		}
	}
	return vals
}

// TestAxpyRowsMatchesScalarLoops holds axpyRows, under every
// implementation, to one plain o[j] += c·b[off+j] sweep per row — so the
// fused four-row pass is also held to the unfused order — at every row
// length in primLengths, row counts on both sides of the four-row fusion,
// misaligned operands and special values in coefficients and rows, and
// checks that nothing outside o is written.
func TestAxpyRowsMatchesScalarLoops(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(31))
		for _, n := range primLengths {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9} {
				for off := 0; off < 4; off++ {
					oBacking := primVals(rng, off+n+4)
					b := primVals(rng, 12*(n+3))
					offs, coefs := make([]int, rows), make([]float64, rows+1) // coefs longer than offs is legal
					for q := range offs {
						offs[q] = rng.Intn(len(b) - n + 1) // rows may overlap, repeat and end flush with b
						coefs[q] = primValues[rng.Intn(len(primValues))]
					}
					want := append([]float64(nil), oBacking...)
					for q, at := range offs {
						for j := 0; j < n; j++ {
							want[off+j] += coefs[q] * b[at+j]
						}
					}
					got := append([]float64(nil), oBacking...)
					axpyRows(got[off:off+n], b, offs, coefs)
					if err := sameRow(want, got); err != nil {
						t.Fatalf("%s axpyRows n=%d rows=%d off=%d offs=%v coefs=%v: %v", impl, n, rows, off, offs, coefs, err)
					}
				}
			}
		}
	})
}

// TestDotTileMatchesScalarLoops holds dotTile, under every implementation,
// to sixteen plain dot products: inner lengths from primLengths (so the
// four-wide body, its scalar tail and k = 0), misaligned operands, a
// destination stride wider than the tile, and special values.
func TestDotTileMatchesScalarLoops(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(32))
		for _, k := range primLengths {
			for off := 0; off < 4; off++ {
				for _, ldo := range []int{4, 5, 11} {
					a := primVals(rng, off+4*k)[off:]
					b := primVals(rng, (off+1)%4+4*k)[(off+1)%4:]
					oBacking := primVals(rng, off+3*ldo+4+4)
					want := append([]float64(nil), oBacking...)
					for r := 0; r < 4; r++ {
						for j := 0; j < 4; j++ {
							var s float64
							for p := 0; p < k; p++ {
								s += a[r*k+p] * b[j*k+p]
							}
							want[off+r*ldo+j] = s
						}
					}
					got := append([]float64(nil), oBacking...)
					dotTile(got[off:off+3*ldo+4], ldo, a, b, k)
					if err := sameRow(want, got); err != nil {
						t.Fatalf("%s dotTile k=%d off=%d ldo=%d: %v", impl, k, off, ldo, err)
					}
				}
			}
		}
	})
}

// TestAddScaledMatchesScalarLoop pins AddScaled, whose body is a one-row
// axpyRows, to dst[i] += s·src[i] for the scales its callers pass (1 for
// gradient accumulation, a negative step) and the ones that must not be
// short-cut (0 still turns an infinite src into NaN; a NaN scale poisons
// every element).
func TestAddScaledMatchesScalarLoop(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(33))
		for _, s := range []float64{1, -0.05, 0, math.NaN()} {
			for _, shape := range [][2]int{{1, 1}, {1, 7}, {1, 24}, {32, 96}, {5, 13}} {
				dst, src := specialMat(rng, shape[0], shape[1], 20), specialMat(rng, shape[0], shape[1], 20)
				want := dst.Clone()
				for i := range want.data {
					want.data[i] += s * src.data[i]
				}
				if err := AddScaled(dst, src, s); err != nil {
					t.Fatal(err)
				}
				if err := sameBits(want, dst); err != nil {
					t.Fatalf("%s AddScaled s=%v shape=%v: %v", impl, s, shape, err)
				}
			}
		}
	})
}

// BenchmarkAxpyRows times the fused four-row pass per implementation at the
// row lengths the federation's layers have.
func BenchmarkAxpyRows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{24, 48, 96, 256} {
		o := RandN(rng, 1, 1, n).data
		rows := RandN(rng, 1, 4, n).data
		offs, coefs := []int{0, n, 2 * n, 3 * n}, []float64{0.5, -0.25, 0.125, 2}
		eachImpl(b, func(impl string) {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					axpyRows(o, rows, offs, coefs)
				}
			})
		})
	}
}
