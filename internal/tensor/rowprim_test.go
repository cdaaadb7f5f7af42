package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
					slices.Sort(offs) // axpyRows requires ascending offsets
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

// sweepLengths are the row lengths the distance tile and the bias and mask
// sweeps are held to the scalar loops at: empty, every length up to two
// vectors and a tail, and both sides of 24, 48 and 96.
var sweepLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 23, 24, 25, 47, 48, 49, 96, 97}

// sweepValues are primValues plus quiet NaNs with payloads of either sign,
// which the sweeps may carry through or replace (NaN ≡ NaN in sameRow).
var sweepValues = append(append([]float64(nil), primValues...),
	math.Float64frombits(0x7FF8_0000_0000_0123), math.Float64frombits(0xFFF8_0000_0000_0042), math.Copysign(math.NaN(), -1))

// sweepVals draws n values, about a third of them from sweepValues.
func sweepVals(rng *rand.Rand, n int) []float64 { return mixedVals(rng, n, 3) }

// mixedVals draws n values, one in oneIn of them (none for oneIn = 0) from
// sweepValues and the rest normal. A long sum meets an overflowing or NaN
// special almost surely at one in three, which hides the order of its
// additions; the distance tests also run on rarer and no specials, where
// a reordered chain shows in the low bits.
func mixedVals(rng *rand.Rand, n, oneIn int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		if oneIn > 0 && rng.Intn(oneIn) == 0 {
			vals[i] = sweepValues[rng.Intn(len(sweepValues))]
		} else {
			vals[i] = rng.NormFloat64()
		}
	}
	return vals
}

// distanceMixes are the special-value rates mixedVals draws the distance
// tests' operands at.
var distanceMixes = []int{0, 16, 3}

// naiveSqDist is SqDist's loop, restated here as the oracle.
func naiveSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// checkSqDistTile runs SqDistTile on a and b and holds every output to
// naiveSqDist, NaN ≡ NaN.
func checkSqDistTile(a, b *[4][]float64) error {
	var got, want [16]float64
	for r := range 4 {
		for j := range 4 {
			want[r*4+j] = naiveSqDist(a[r], b[j])
		}
		got[r*4] = math.NaN() // every output is written
	}
	SqDistTile(&got, a, b)
	return sameRow(want[:], got[:])
}

// TestSqDistTileMatchesSqDist holds the distance tile, under every
// implementation, to sixteen SqDist loops: every length of sweepLengths,
// rows at element offsets 0–3 of one another, rows repeated on either side
// (how k-means pads a ragged edge) and special values — ±0, ±Inf, NaN
// payloads, denormals, 1e±300, whose squares overflow and underflow — at
// every rate of distanceMixes.
func TestSqDistTileMatchesSqDist(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(34))
		for _, d := range sweepLengths {
			for i := 0; i < 4*len(distanceMixes); i++ {
				off, mix := i%4, distanceMixes[i/4]
				backing := mixedVals(rng, off+9*d+3, mix)
				row := func(q int) []float64 { return backing[off+q*d+q%3:][:d] }
				distinct := [2][4][]float64{{row(0), row(1), row(2), row(3)}, {row(4), row(5), row(6), row(7)}}
				repeated := [4][]float64{row(8), row(8), row(2), row(8)}
				for _, pair := range [][2]*[4][]float64{
					{&distinct[0], &distinct[1]}, {&distinct[1], &distinct[0]},
					{&distinct[0], &repeated}, {&repeated, &distinct[1]}, {&repeated, &repeated},
				} {
					if err := checkSqDistTile(pair[0], pair[1]); err != nil {
						t.Fatalf("%s SqDistTile d=%d off=%d specials 1 in %d: %v", impl, d, off, mix, err)
					}
				}
			}
		}
	})
}

// TestSqDistTileRejectsRaggedRows checks that rows of different lengths
// panic before any of them is read.
func TestSqDistTileRejectsRaggedRows(t *testing.T) {
	row := make([]float64, 5)
	for q := range 8 {
		a, b := [4][]float64{row, row, row, row}, [4][]float64{row, row, row, row}
		if q < 4 {
			a[q] = row[:4]
		} else {
			b[q-4] = row[:4]
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SqDistTile with row %d short: no panic", q)
				}
			}()
			var o [16]float64
			SqDistTile(&o, &a, &b)
		}()
	}
}

// FuzzSqDistTileMatchesSqDist is TestSqDistTileMatchesSqDist over drawn row
// lengths, offsets, repetitions and values (the seed picks the special-value
// rate too), on both implementations.
func FuzzSqDistTileMatchesSqDist(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint16(0))
	f.Add(uint8(1), uint8(1), int64(2), uint16(0x1234))
	f.Add(uint8(7), uint8(2), int64(3), uint16(0xffff))
	f.Add(uint8(24), uint8(3), int64(4), uint16(0x0f0f))
	f.Add(uint8(49), uint8(1), int64(5), uint16(0x8421))
	f.Add(uint8(97), uint8(2), int64(6), uint16(0x7777))
	f.Add(uint8(255), uint8(3), int64(7), uint16(0x0001))
	f.Fuzz(func(t *testing.T, d, off uint8, seed int64, pick uint16) {
		eachImpl(t, func(impl string) {
			rng := rand.New(rand.NewSource(seed))
			o := int(off) % 4
			backing := mixedVals(rng, o+8*int(d), distanceMixes[uint64(seed)%uint64(len(distanceMixes))])
			var a, b [4][]float64
			for q := range 8 {
				// Two bits of pick per row choose which of four stored rows it is.
				row := backing[o+int(d)*(int(pick>>(2*(q%8)))&3+4*(q/4)):][:d]
				if q < 4 {
					a[q] = row
				} else {
					b[q-4] = row
				}
			}
			if err := checkSqDistTile(&a, &b); err != nil {
				t.Fatalf("%s SqDistTile d=%d off=%d pick=%#x: %v", impl, d, o, pick, err)
			}
		})
	})
}

// TestAddRowVecMatchesScalarLoops holds AddRowVec and AddRowVecReLU, under
// every implementation, to row[j] += v[j] and to the plain-if ReLU of that
// sum — v <= 0 gives +0, anything else (NaN of either sign included) passes
// through — at every length of sweepLengths, 0 to 5 rows, misaligned
// operands and special values, and checks that nothing after y is written.
func TestAddRowVecMatchesScalarLoops(t *testing.T) {
	plainReLU := func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		return v
	}
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(35))
		for _, n := range sweepLengths {
			for rows := range 6 {
				for off := 0; off < 4; off++ {
					backing := sweepVals(rng, off+rows*n+4)
					v := sweepVals(rng, (off+1)%4+n)[(off+1)%4:]
					for _, relu := range []bool{false, true} {
						want := append([]float64(nil), backing...)
						for i := 0; i < rows; i++ {
							for j := range v {
								at := off + i*n + j
								want[at] += v[j]
								if relu {
									want[at] = plainReLU(want[at])
								}
							}
						}
						got := append([]float64(nil), backing...)
						y := View(got[off:off+rows*n], rows, n)
						if relu {
							AddRowVecReLU(y, v)
						} else {
							AddRowVec(y, v)
						}
						if err := sameRow(want, got); err != nil {
							t.Fatalf("%s AddRowVec relu=%v n=%d rows=%d off=%d: %v", impl, relu, n, rows, off, err)
						}
					}
				}
			}
		}
	})
}

// TestReLUGradMatchesScalarLoop holds ReLUGradInto, under every
// implementation, to the plain if — g where y > 0, +0 elsewhere (±0,
// negatives, NaN) — at every length of sweepLengths, misaligned operands,
// special values in both operands, into a fresh destination and in place
// over g.
func TestReLUGradMatchesScalarLoop(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(36))
		for _, n := range sweepLengths {
			for off := 0; off < 4; off++ {
				g := sweepVals(rng, off+n)[off:]
				y := sweepVals(rng, (off+2)%4+n)[(off+2)%4:]
				dstBacking := sweepVals(rng, (off+3)%4+n+4)
				want := append([]float64(nil), dstBacking...)
				for i := range g {
					want[(off+3)%4+i] = 0
					if y[i] > 0 {
						want[(off+3)%4+i] = g[i]
					}
				}
				got := append([]float64(nil), dstBacking...)
				ReLUGradInto(View(got[(off+3)%4:][:n], 1, n), View(g, 1, n), View(y, 1, n))
				if err := sameRow(want, got); err != nil {
					t.Fatalf("%s ReLUGradInto n=%d off=%d: %v", impl, n, off, err)
				}
				ReLUGradInto(View(g, 1, n), View(g, 1, n), View(y, 1, n))
				if err := sameRow(want[(off+3)%4:][:n], g); err != nil {
					t.Fatalf("%s ReLUGradInto in place n=%d off=%d: %v", impl, n, off, err)
				}
			}
		}
	})
}

// TestAddScaledRowsMatchesScalarLoops holds AddScaledRows and AddRows,
// under every implementation, to one plain dst[j] += c·row[j] (resp.
// dst[j] += row[j]) sweep per row, rows top to bottom: row lengths from
// sweepLengths, row counts across the four-row fusion and the blockK-row
// chunks, fewer coefficients than rows, misaligned operands and special
// values.
func TestAddScaledRowsMatchesScalarLoops(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(37))
		for _, n := range sweepLengths {
			for _, m := range []int{0, 1, 3, 4, 5, 24, blockK, blockK + 1, 2*blockK + 5} {
				for off := 0; off < 4; off++ {
					rows := View(sweepVals(rng, off+m*n)[off:], m, n)
					dstBacking := sweepVals(rng, (off+1)%4+n+4)
					dst := func(b []float64) []float64 { return b[(off+1)%4:][:n] }
					first := m / 5
					coefs := sweepVals(rng, m)[first : m-m/3] // rows on either side of the ones used
					want := append([]float64(nil), dstBacking...)
					for q, c := range coefs {
						for j := range dst(want) {
							dst(want)[j] += c * rows.Row(first + q)[j]
						}
					}
					got := append([]float64(nil), dstBacking...)
					AddScaledRows(dst(got), rows, first, coefs)
					if err := sameRow(want, got); err != nil {
						t.Fatalf("%s AddScaledRows n=%d m=%d first=%d coefs=%d off=%d: %v", impl, n, m, first, len(coefs), off, err)
					}

					want = append(want[:0], dstBacking...)
					for q := range m {
						for j := range dst(want) {
							dst(want)[j] += rows.Row(q)[j]
						}
					}
					got = append(got[:0], dstBacking...)
					AddRows(dst(got), rows)
					if err := sameRow(want, got); err != nil {
						t.Fatalf("%s AddRows n=%d m=%d off=%d: %v", impl, n, m, off, err)
					}
				}
			}
		}
	})
}

// TestAddScaledRowsRejectsShortRows checks that a coefficient without a row
// — a rows matrix shorter than first+len(coefs), a negative first row, or a
// matrix of another width — panics instead of reading past the matrix.
func TestAddScaledRowsRejectsShortRows(t *testing.T) {
	rows := New(3, 5)
	for _, c := range []struct {
		dst, first, coefs int
	}{{5, 0, 4}, {5, 1, 3}, {5, 3, 1}, {5, -1, 1}, {5, 0, 2*blockK + 1}, {4, 0, 3}, {6, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddScaledRows of %d coefficients from row %d of 3×5 into %d values: no panic", c.coefs, c.first, c.dst)
				}
			}()
			AddScaledRows(make([]float64, c.dst), rows, c.first, make([]float64, c.coefs))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddRows of a 3×5 matrix into 4 values: no panic")
			}
		}()
		AddRows(make([]float64, 4), rows)
	}()
}

// expShifts are the shifts the exp tests subtract: zero, finite values of
// either sign (a softmax row's max, and shifts that move a row across the
// lane classes), both infinities and NaN.
var expShifts = []float64{0, 1.5, -2.25, 703.5, -701, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}

// expVal draws one input for the exp tests, from a lane class of
// expShiftAVX2 chosen at random: the vector path's [−700, 700], the +0
// class below −750, the [−750, −700) band math.Exp takes to its denormal
// step, (700, 710] where it overflows or nearly does, NaN payloads of both
// signs, ±Inf, ±0 and denormal inputs, and arbitrary bit patterns.
func expVal(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return -750 + 50*rng.Float64()
	case 1:
		return 710 - 10*rng.Float64()
	case 2:
		return -750 - 1e3*rng.ExpFloat64()
	case 3:
		nan := math.Float64bits(math.NaN()) | rng.Uint64()&(1<<51-1)
		if rng.Intn(2) == 0 {
			nan |= signBit
		}
		return math.Float64frombits(nan)
	case 4:
		return [...]float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0x1p-1060, -0x1p-1060}[rng.Intn(6)]
	case 5:
		return math.Float64frombits(rng.Uint64())
	default:
		return 1400*rng.Float64() - 700
	}
}

// expRow draws n inputs: ordinary ones in [−30, 30], and, one in oneIn of
// them (none when oneIn is 0), one of expVal's.
func expRow(rng *rand.Rand, n, oneIn int) []float64 {
	row := make([]float64, n)
	for i := range row {
		if oneIn > 0 && rng.Intn(oneIn) == 0 {
			row[i] = expVal(rng)
		} else {
			row[i] = 60*rng.Float64() - 30
		}
	}
	return row
}

// checkExpShift runs ExpShiftInto on src into dst and holds every element
// to math.Exp(src[i] − shift), bit for bit, NaN payloads included.
func checkExpShift(dst, src []float64, shift float64) error {
	want := make([]float64, len(src))
	for i, x := range src {
		want[i] = math.Exp(x - shift)
	}
	ExpShiftInto(dst, src, shift)
	for i, w := range want {
		if math.Float64bits(w) != math.Float64bits(dst[i]) {
			return fmt.Errorf("element %d: exp(%v − %v) = %v (%#x), got %v (%#x)",
				i, src[i], shift, w, math.Float64bits(w), dst[i], math.Float64bits(dst[i]))
		}
	}
	return nil
}

// TestExpShiftMatchesMathExp holds ExpShiftInto, under every
// implementation, to math.Exp bit for bit: at lengths around the four-lane
// groups and the masked tail, offsets 0–3, every shift of expShifts, rows
// with no exceptional lane and with them at two rates, in place and into a
// separate row whose neighbours must stay unwritten; then over a dense sweep
// of [−800, 800] and over arbitrary bit patterns.
func TestExpShiftMatchesMathExp(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65}
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(35))
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				for _, shift := range expShifts {
					for _, oneIn := range []int{0, 16, 3} {
						src := expRow(rng, off+n, oneIn)[off:]
						backing := make([]float64, off+n+4)
						for i := range backing {
							backing[i] = -1
						}
						dst := backing[off : off+n]
						if err := checkExpShift(dst, src, shift); err != nil {
							t.Fatalf("%s n=%d off=%d shift=%v specials 1 in %d: %v", impl, n, off, shift, oneIn, err)
						}
						for i, v := range backing {
							if (i < off || i >= off+n) && v != -1 {
								t.Fatalf("%s n=%d off=%d: element %d outside dst written", impl, n, off, i)
							}
						}
						if err := checkExpShift(src, slices.Clone(src), shift); err != nil {
							t.Fatalf("%s in place n=%d off=%d shift=%v specials 1 in %d: %v", impl, n, off, shift, oneIn, err)
						}
					}
				}
			}
		}
		sweep := make([]float64, 1<<16)
		for _, shift := range []float64{0, 0.25, -3} {
			for i := range sweep {
				sweep[i] = -800 + 1600*float64(i)/float64(len(sweep)) + rng.Float64()*(1600.0/float64(len(sweep)))
			}
			if err := checkExpShift(make([]float64, len(sweep)), sweep, shift); err != nil {
				t.Fatalf("%s sweep of [−800, 800] shift=%v: %v", impl, shift, err)
			}
		}
		for i := range sweep {
			sweep[i] = math.Float64frombits(rng.Uint64())
		}
		if err := checkExpShift(make([]float64, len(sweep)), sweep, 0); err != nil {
			t.Fatalf("%s bit patterns: %v", impl, err)
		}
	})
}

// FuzzExpShiftMatchesMathExp is TestExpShiftMatchesMathExp over what the
// fuzzer picks: the row length, the offset, the shift, and one input x
// placed at position at, among draws of expRow.
func FuzzExpShiftMatchesMathExp(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), 0.0, 0.0, uint8(0))
	f.Add(uint8(4), uint8(1), int64(2), 1.5, -749.5, uint8(2))
	f.Add(uint8(7), uint8(2), int64(3), -700.0, 0.0, uint8(6))
	f.Add(uint8(17), uint8(3), int64(4), math.Inf(-1), 709.8, uint8(16))
	f.Add(uint8(65), uint8(0), int64(5), math.NaN(), math.Inf(1), uint8(64))
	f.Fuzz(func(t *testing.T, n, off uint8, seed int64, shift, x float64, at uint8) {
		eachImpl(t, func(impl string) {
			rng := rand.New(rand.NewSource(seed))
			o := int(off) % 4
			src := expRow(rng, o+int(n), int(uint64(seed)%4)*4)[o:]
			if n > 0 {
				src[int(at)%int(n)] = x
			}
			if err := checkExpShift(make([]float64, n), src, shift); err != nil {
				t.Fatalf("%s n=%d off=%d shift=%v: %v", impl, n, o, shift, err)
			}
		})
	})
}
