package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// asmAvailable and avx512Available are useAVX2 and useAVX512 as the package
// initialised them: whether this build and this CPU run each assembly tier
// of the row primitives at all.
var asmAvailable, avx512Available = useAVX2, useAVX512

// eachImpl runs f once per tier of the row primitives — the AVX-512 bodies
// (with the AVX2 ones where a primitive has no AVX-512 body), the AVX2
// assembly, then the portable loops — by flipping the package's unexported
// switches, and restores them afterwards. A tier this build or CPU cannot
// run (not amd64, the purego tag, no AVX2 or no AVX-512F, or the OS not
// saving the state) is skipped with a logged line naming it, and f runs on
// the tiers that remain; the portable loops always run.
func eachImpl(t testing.TB, f func(impl string)) {
	t.Helper()
	defer func() { useAVX2, useAVX512 = asmAvailable, avx512Available }()
	available := [len(kernelImpls)]bool{avx512Available, asmAvailable, true}
	for i, impl := range kernelImpls {
		if !available[i] {
			t.Logf("%s leg skipped: no %s row primitives on this build or CPU (GOARCH, purego tag, CPUID/XGETBV)", impl, impl)
			continue
		}
		useAVX512, useAVX2 = i == 0, i <= 1
		f(impl)
	}
}

// TestRowPrimitiveTiers holds KernelImpl to the widest tier the CPU probe
// selected, one of KernelImpls, and logs which tiers eachImpl runs on this
// build and host, so that a test log from a host without AVX-512 (or
// without AVX2, or a purego build) shows the legs it skipped.
func TestRowPrimitiveTiers(t *testing.T) {
	want := "generic"
	switch {
	case avx512Available && !asmAvailable:
		t.Fatal("the AVX-512 tier was selected without the AVX2 one it falls back on")
	case avx512Available:
		want = "avx512"
	case asmAvailable:
		want = "avx2"
	}
	if got := KernelImpl(); got != want || !slices.Contains(KernelImpls(), got) {
		t.Fatalf("KernelImpl() = %q, want %q, one of %q", got, want, KernelImpls())
	}
	var ran []string
	eachImpl(t, func(impl string) { ran = append(ran, impl) })
	t.Logf("KernelImpl() = %s; eachImpl ran the legs %v of %v", KernelImpl(), ran, KernelImpls())
}

// primValues are what the primitive tests draw coefficients and row elements
// from: the oracle's special values, magnitudes whose products overflow and
// underflow, and ordinary numbers.
var primValues = append([]float64{1e300, -1e300, 1e-300, -1e-300, 1, -1, 0.1, -3.75, math.Pi}, specials[:]...)

// primLengths are row lengths around every boundary of the vector loops:
// empty, shorter than a vector, one vector, the eight-element unrolled body
// with and without each tail, the sixteen-element AVX-512 body with every
// masked tail of one to seven lanes after it, and long rows.
var primLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 31, 32, 33, 48, 96, 97, 1024}

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

// TestDotTileMatchesScalarLoops holds dotTile and dotTile8, under every
// implementation, to plain dot products: inner lengths from primLengths (so
// the four- and eight-wide bodies, their tails and k = 0), misaligned
// operands, a destination stride wider than the tile, and special values.
func TestDotTileMatchesScalarLoops(t *testing.T) {
	tiles := []struct {
		rows int
		tile func(o []float64, ldo int, a, b []float64, k int)
	}{{4, dotTile}, {8, dotTile8}}
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(32))
		for _, tl := range tiles {
			w := tl.rows
			for _, k := range primLengths {
				for off := 0; off < 4; off++ {
					for _, ldo := range []int{w, w + 1, w + 7} {
						a := primVals(rng, off+w*k)[off:]
						b := primVals(rng, (off+1)%4+w*k)[(off+1)%4:]
						oBacking := primVals(rng, off+(w-1)*ldo+w+4)
						want := append([]float64(nil), oBacking...)
						for r := 0; r < w; r++ {
							for j := 0; j < w; j++ {
								var s float64
								for p := 0; p < k; p++ {
									s += a[r*k+p] * b[j*k+p]
								}
								want[off+r*ldo+j] = s
							}
						}
						got := append([]float64(nil), oBacking...)
						tl.tile(got[off:off+(w-1)*ldo+w], ldo, a, b, k)
						if err := sameRow(want, got); err != nil {
							t.Fatalf("%s %d×%d dotTile k=%d off=%d ldo=%d: %v", impl, w, w, k, off, ldo, err)
						}
					}
				}
			}
		}
	})
}

// TestDotTileNaNPayloadsAgreeAcrossTiers holds the AVX-512 dotTile8 to the
// AVX2 tier's exact bits where NaNs meet, which sameRow lets pass as
// NaN ≡ NaN: every a and b element is a NaN with a payload of its own (a's
// positive, b's negative) or an ordinary number, so a lane's result shows
// which factor of its first NaN product it kept — a's, in both assembly
// tiers. The portable loops are not held to it: which operand of x*y the Go
// compiler puts first, and so which payload survives, is its own choice
// (dotTileGeneric keeps b's in places).
func TestDotTileNaNPayloadsAgreeAcrossTiers(t *testing.T) {
	if !avx512Available {
		t.Skip("avx512 leg skipped: no avx512 row primitives on this build or CPU (GOARCH, purego tag, CPUID/XGETBV)")
	}
	defer func() { useAVX512 = true }()
	rng := rand.New(rand.NewSource(33))
	vals := func(n int, sign uint64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = rng.NormFloat64()
			} else {
				v[i] = math.Float64frombits(sign | 0x7FF8_0000_0000_0000 | uint64(i+1))
			}
		}
		return v
	}
	for _, k := range []int{1, 3, 8, 13} {
		a, b := vals(8*k, 0), vals(8*k, 1<<63)
		avx512, avx2 := make([]float64, 64), make([]float64, 64)
		useAVX512 = true
		dotTile8(avx512, 8, a, b, k)
		useAVX512 = false
		dotTile8(avx2, 8, a, b, k)
		for e := range avx2 {
			if math.Float64bits(avx512[e]) != math.Float64bits(avx2[e]) {
				t.Fatalf("avx512 8×8 dotTile k=%d element %d: %#x, avx2 %#x", k, e, math.Float64bits(avx512[e]), math.Float64bits(avx2[e]))
			}
		}
	}
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

// BenchmarkTransBTiles times the a·bᵀ kernel per implementation at the
// (m × k × n) shapes the workloads run it at: NT-Xent's similarity of 64
// embeddings of 24, the input gradients of the small model's two dense
// layers, and the head's ten outputs, which leave a ragged column edge.
func BenchmarkTransBTiles(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range [][3]int{{64, 24, 64}, {32, 96, 32}, {32, 48, 96}, {32, 24, 10}} {
		m, k, n := s[0], s[1], s[2]
		x, y, out := RandN(rng, 1, m, k), RandN(rng, 1, n, k), New(m, n)
		eachImpl(b, func(impl string) {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, impl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatMulTransBSerialInto(out, x, y)
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

// stepVal draws one element of a step operand: one in four from specials
// (±0, ±Inf, NaN, denormals), the rest ordinary numbers.
func stepVal(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64()
}

// refSGDStep is the optimizer's scalar loop, as SGD.Step ran it before the
// step became a row primitive.
func refSGDStep(v, g, vel []float64, lr, mom, wd float64) {
	if vel == nil {
		for j := range v {
			grad := g[j] + wd*v[j]
			v[j] -= lr * grad
		}
		return
	}
	for j := range v {
		grad := g[j] + wd*v[j]
		vel[j] = mom*vel[j] + grad
		v[j] -= lr * vel[j]
	}
}

// checkSGDStep runs SGDStep on n elements at offset off of arrays drawn
// from rng, momentum form when withVel, and holds v and vel to refSGDStep
// element for element (sameRow: any NaN for a NaN), and every element
// outside the n to what it was.
func checkSGDStep(rng *rand.Rand, n, off int, withVel bool, lr, mom, wd float64) error {
	draw := func() []float64 {
		row := make([]float64, off+n+3)
		for i := range row {
			row[i] = stepVal(rng)
		}
		return row
	}
	v, g, vel := draw(), draw(), draw()
	wantV, wantVel := slices.Clone(v), slices.Clone(vel)
	gotV, gotVel := slices.Clone(v), slices.Clone(vel)
	var refVel, stepVel []float64
	if withVel {
		refVel, stepVel = wantVel[off:off+n], gotVel[off:off+n]
	}
	refSGDStep(wantV[off:off+n], g[off:off+n], refVel, lr, mom, wd)
	SGDStep(gotV[off:off+n], g[off:off+n], stepVel, lr, mom, wd)
	if err := sameRow(wantV, gotV); err != nil {
		return fmt.Errorf("values: %w", err)
	}
	if err := sameRow(wantVel, gotVel); err != nil {
		return fmt.Errorf("velocities: %w", err)
	}
	for i := range v {
		if (i < off || i >= off+n) && (math.Float64bits(v[i]) != math.Float64bits(gotV[i]) || math.Float64bits(vel[i]) != math.Float64bits(gotVel[i])) {
			return fmt.Errorf("element %d outside the step written", i)
		}
	}
	return nil
}

// TestSGDStepMatchesScalarLoop holds SGDStep, under every implementation,
// to the optimizer's scalar loop: lengths around the four- and eight-wide
// bodies and their tails, offsets 0–3, both forms, momentum and weight
// decay zero and not, and ±0, ±Inf, NaN and denormals in v, g and vel.
func TestSGDStepMatchesScalarLoop(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65}
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(36))
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				for _, withVel := range []bool{false, true} {
					for _, h := range [][3]float64{{0.05, 0.9, 0}, {0.05, 0, 0}, {0.1, 0.9, 5e-4}, {0.1, 0, 5e-4}, {-1.5, 1e300, 1e-300}} {
						if err := checkSGDStep(rng, n, off, withVel, h[0], h[1], h[2]); err != nil {
							t.Fatalf("%s n=%d off=%d momentum form %v lr=%v mom=%v wd=%v: %v", impl, n, off, withVel, h[0], h[1], h[2], err)
						}
					}
				}
			}
		}
	})
}

// TestSGDStepRejectsShortOperands: a gradient or velocity of another length
// than the values is a caller's bug, not a shorter step.
func TestSGDStepRejectsShortOperands(t *testing.T) {
	for _, c := range []struct {
		name   string
		g, vel []float64
	}{{"short g", make([]float64, 3), nil}, {"short vel", make([]float64, 4), make([]float64, 3)}, {"empty vel", make([]float64, 4), []float64{}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SGDStep did not panic", c.name)
				}
			}()
			SGDStep(make([]float64, 4), c.g, c.vel, 0.1, 0.9, 0)
		}()
	}
}

// FuzzSGDStepMatchesScalarLoop is TestSGDStepMatchesScalarLoop over what the
// fuzzer picks: the length, the offset, the form, the three coefficients
// and one value placed in v, g and vel at position at.
func FuzzSGDStepMatchesScalarLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, int64(1), 0.05, 0.9, 0.0, 0.0, uint8(0))
	f.Add(uint8(9), uint8(1), true, int64(2), 0.05, 0.9, 5e-4, math.Inf(1), uint8(8))
	f.Add(uint8(17), uint8(2), true, int64(3), 0.1, 0.0, 0.0, math.NaN(), uint8(16))
	f.Add(uint8(65), uint8(3), false, int64(4), -2.0, 1e300, 1e-300, math.SmallestNonzeroFloat64, uint8(64))
	f.Fuzz(func(t *testing.T, n, off uint8, withVel bool, seed int64, lr, mom, wd, x float64, at uint8) {
		eachImpl(t, func(impl string) {
			o := int(off) % 4
			rng := rand.New(rand.NewSource(seed))
			v, g, vel := make([]float64, o+int(n)), make([]float64, o+int(n)), make([]float64, o+int(n))
			for i := range v {
				v[i], g[i], vel[i] = stepVal(rng), stepVal(rng), stepVal(rng)
			}
			if n > 0 {
				i := o + int(at)%int(n)
				v[i], g[i], vel[i] = x, -x, x
			}
			wantV, wantVel, gotV, gotVel := slices.Clone(v[o:]), slices.Clone(vel[o:]), slices.Clone(v[o:]), slices.Clone(vel[o:])
			if !withVel {
				wantVel, gotVel = nil, nil
			}
			refSGDStep(wantV, g[o:], wantVel, lr, mom, wd)
			SGDStep(gotV, g[o:], gotVel, lr, mom, wd)
			if err := sameRow(wantV, gotV); err != nil {
				t.Fatalf("%s n=%d off=%d momentum form %v: values: %v", impl, n, o, withVel, err)
			}
			if err := sameRow(wantVel, gotVel); err != nil {
				t.Fatalf("%s n=%d off=%d: velocities: %v", impl, n, o, err)
			}
		})
	})
}

// refSumSquares is SumSquares' order written out one chain at a time.
func refSumSquares(x []float64) float64 {
	var s [16]float64
	tail := len(x) % 4
	for i, v := range x[:len(x)-tail] {
		s[i%16] += v * v
	}
	var t float64
	for _, v := range x[len(x)-tail:] {
		t += v * v
	}
	a0 := (s[0] + s[4]) + (s[8] + s[12])
	a1 := (s[1] + s[5]) + (s[9] + s[13])
	a2 := (s[2] + s[6]) + (s[10] + s[14])
	a3 := (s[3] + s[7]) + (s[11] + s[15])
	return ((a0 + a2) + (a1 + a3)) + t
}

// TestSumSquaresAndScaleMatchScalarLoops holds SumSquares, under every
// implementation, to its chain order written out (so the two
// implementations return the same bits), and ScaleSlice to x[i] *= c, at
// lengths around the sixteen-, eight- and four-wide bodies and offsets 0–3.
func TestSumSquaresAndScaleMatchScalarLoops(t *testing.T) {
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(37))
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ {
				for _, oneIn := range []int{0, 5} {
					row := mixedVals(rng, off+n+2, oneIn)
					x := row[off : off+n]
					if got, want := SumSquares(x), refSumSquares(x); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s SumSquares n=%d off=%d: got %v, want %v", impl, n, off, got, want)
					}
					c := primValues[rng.Intn(len(primValues))]
					want, got := slices.Clone(row), slices.Clone(row)
					for i := off; i < off+n; i++ {
						want[i] *= c
					}
					ScaleSlice(got[off:off+n], c)
					if err := sameRow(want, got); err != nil {
						t.Fatalf("%s ScaleSlice n=%d off=%d c=%v: %v", impl, n, off, c, err)
					}
				}
			}
		}
	})
}

// refCompactRow is the compaction loop mulRowsRange ran inline before it
// became a primitive, kept as compactRow's oracle: store every entry, keep
// its slot only where the bits are not ±0.
func refCompactRow(coef []float64, off []int, src []float64, off0, step int) int {
	nz := 0
	for p, c := range src {
		coef[nz], off[nz] = c, off0+p*step
		u := math.Float64bits(c) << 1
		nz += int((u | -u) >> 63)
	}
	return nz
}

// compactKeeps are the entries compactRow must keep however they compare:
// NaN with two payloads, both infinities, both smallest subnormals and
// ordinary values. compactDrops are the two it must drop.
var (
	compactKeeps = []float64{
		math.NaN(), math.Float64frombits(0xFFF0_0000_0000_0BAD), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1.5, -2.25, 1e-300,
	}
	compactDrops = []float64{0, math.Copysign(0, -1)}
)

// checkCompactRow runs compactRow on src into buffers two slots longer than
// src, whose spare slots hold a sentinel, and holds the count, the kept
// coefficients' bits (payloads included: the pack moves bits, it computes
// nothing) and their offsets to refCompactRow, and the spare slots to their
// sentinel.
func checkCompactRow(src []float64, off0, step int) error {
	const sentinel = 12345
	wantCoef, wantOff := make([]float64, len(src)), make([]int, len(src))
	want := refCompactRow(wantCoef, wantOff, src, off0, step)
	coef, off := make([]float64, len(src)+2), make([]int, len(src)+2)
	for i := range coef {
		coef[i], off[i] = sentinel, sentinel
	}
	got := compactRow(coef, off, src, off0, step)
	if got != want {
		return fmt.Errorf("kept %d entries, want %d", got, want)
	}
	for q := 0; q < want; q++ {
		if math.Float64bits(coef[q]) != math.Float64bits(wantCoef[q]) || off[q] != wantOff[q] {
			return fmt.Errorf("slot %d: coefficient %#x at offset %d, want %#x at %d",
				q, math.Float64bits(coef[q]), off[q], math.Float64bits(wantCoef[q]), wantOff[q])
		}
	}
	for q := len(src); q < len(coef); q++ {
		if coef[q] != sentinel || off[q] != sentinel {
			return fmt.Errorf("slot %d past the source's %d entries was written", q, len(src))
		}
	}
	return nil
}

// TestCompactRowEveryLaneMask holds compactRow, under every implementation,
// to refCompactRow for every keep/drop pattern of a four-lane group — the
// sixteen masks the assembly's tables index — at lengths 0–11, so that
// groups are followed by tails of zero to three entries, with the mask the
// same in every group and shifting from group to group.
func TestCompactRowEveryLaneMask(t *testing.T) {
	eachImpl(t, func(impl string) {
		for n := 0; n <= 11; n++ {
			for mask := 0; mask < 16; mask++ {
				for _, shift := range []int{0, 7} {
					src := make([]float64, n)
					for p := range src {
						if m := (mask + shift*(p/4)) % 16; m>>(p%4)&1 == 1 {
							src[p] = compactKeeps[(p+mask)%len(compactKeeps)]
						} else {
							src[p] = compactDrops[(p+mask)%len(compactDrops)]
						}
					}
					for _, o := range []struct{ off0, step int }{{0, 1}, {7, 48}, {-3, 1 << 28}} {
						if err := checkCompactRow(src, o.off0, o.step); err != nil {
							t.Fatalf("%s n=%d mask=%04b shift=%d off0=%d step=%d: %v", impl, n, mask, shift, o.off0, o.step, err)
						}
					}
				}
			}
		}
	})
}

// FuzzCompactRowMatchesScalar is TestCompactRowEveryLaneMask over what the
// fuzzer picks: the length, the start of the source in its backing array,
// the share of kept entries, how many of the kept ones are special values,
// and the offsets' start and step.
func FuzzCompactRowMatchesScalar(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(50), uint8(0), int32(0), int16(1), int64(1))
	f.Add(uint8(5), uint8(1), uint8(100), uint8(255), int32(7), int16(48), int64(2))
	f.Add(uint8(64), uint8(3), uint8(50), uint8(32), int32(0), int16(96), int64(3))
	f.Add(uint8(67), uint8(2), uint8(0), uint8(0), int32(-5), int16(-3), int64(4))
	f.Add(uint8(255), uint8(7), uint8(90), uint8(128), int32(1<<30), int16(1<<14), int64(5))
	f.Fuzz(func(t *testing.T, n, start, keepPct, special uint8, off0 int32, step int16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		at := int(start) % 8
		backing := make([]float64, at+int(n))
		for i := range backing {
			switch {
			case rng.Intn(100) >= int(keepPct):
				backing[i] = compactDrops[rng.Intn(len(compactDrops))]
			case rng.Intn(256) < int(special):
				backing[i] = compactKeeps[rng.Intn(len(compactKeeps))]
			default:
				backing[i] = rng.NormFloat64()
			}
		}
		eachImpl(t, func(impl string) {
			if err := checkCompactRow(backing[at:], int(off0), int(step)); err != nil {
				t.Fatalf("%s n=%d start=%d: %v", impl, n, at, err)
			}
		})
	})
}

// BenchmarkCompactRow times compactRow per implementation over 48 blocks of
// blockK ReLU-sparse coefficients (3,072, half of them +0), one op packing
// them all, rotating 16 such inputs so that no keep pattern repeats within
// the branch predictor's reach.
func BenchmarkCompactRow(b *testing.B) {
	const rows = 48
	rng := rand.New(rand.NewSource(12))
	srcs := make([][]float64, 16)
	for i := range srcs {
		srcs[i] = make([]float64, rows*blockK)
		for j := range srcs[i] {
			srcs[i][j] = max(rng.NormFloat64(), 0)
		}
	}
	var coef [blockK]float64
	var off [blockK]int
	eachImpl(b, func(impl string) {
		b.Run(impl, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := srcs[i%len(srcs)]
				for r := 0; r < rows; r++ {
					compactKept += compactRow(coef[:], off[:], src[r*blockK:(r+1)*blockK], 0, 48)
				}
			}
		})
	})
}

// compactKept sinks BenchmarkCompactRow's counts, so that no call is
// optimised away.
var compactKept int
