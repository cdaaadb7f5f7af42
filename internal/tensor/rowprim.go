package tensor

import (
	"math"
	"slices"
)

// The row primitives are the innermost loops of the matmul micro-kernels
// (matmul.go), of AddScaled and AddScaledRows, of the distance tile behind
// k-means and of the bias/ReLU sweeps of a fused layer: loop bodies over
// contiguous float64 rows — axpyRows, which adds scaled rows to a row;
// compactRow, which left-packs a row's non-zero coefficients with their
// b-row offsets for axpyRows; dotTile and dotTile8, a 4×4 and an 8×8 tile
// of dot products; sqDistTile, a 4×4 tile of squared distances; biasRows, a
// bias added to every row (then ReLU, if asked);
// reluMask, a gradient kept where an output is positive; expShift, the
// shifted exponential of a softmax row; and the optimizer's three sweeps,
// sgdStep, SGD's update of a run of parameters, sumSquares, the gradients'
// sum of squares, and scale, the clip's multiply — each in up to three
// tiers that agree bit for bit.
//
//   - The portable loops in this file are the scalar inner loops the kernels
//     always had, and they are what runs on every build without the
//     assembly: GOARCH other than amd64, the purego build tag, or an amd64
//     CPU without AVX2 (or whose OS does not save YMM state).
//   - rowprim_amd64.s holds the same loops as AVX2 vector loops, four
//     elements per instruction, each lane one output element.
//   - On a CPU with AVX-512F whose OS saves the opmask and ZMM state,
//     axpyRows and dotTile8 run AVX-512 bodies from the same file: eight
//     lanes per instruction, and a tail shorter than a vector as one group
//     under an opmask instead of a scalar loop. The other primitives keep
//     their AVX2 bodies there: an AVX-512 compaction measured flat, and
//     AVX-512 optimizer sweeps gained too little to show in a round
//     (ARCHITECTURE.md, "The AVX-512 tier").
//
// Every tier runs one element's arithmetic as a multiply rounded to float64
// and then an add rounded to float64, in the order the expression is written.
// That is why the vector loops use VMULPD and VADDPD and never a fused
// multiply-add: an FMA skips the product's rounding, which would change the
// low bits of almost every sum and break every 0-ULP contract in
// ARCHITECTURE.md's determinism table. Vectorising across elements changes
// which elements are in flight together, never the chain of roundings of
// any one of them, so the assembly is held to the same oracle as the loops
// it replaces (matmul_oracle_test.go, rowprim_test.go).
//
// compactRow does no arithmetic: it moves the bits of the entries that are
// not ±0, and both bodies keep exactly those, in order
// (TestCompactRowEveryLaneMask holds them to the loop mulRowsRange ran
// inline before).
//
// sumSquares is the exception to "in the order the expression is written":
// it sums in sixteen chains, the order spelled out in sumSquaresGeneric,
// which both bodies follow, so they agree with each other bit for bit but
// not with a serial sum of the same squares. Its one caller, SGD's clip,
// uses it only where a bound on every summation order makes the
// difference immaterial (nn's clipBoundDecides).
//
// expShift is the exception to "never FMA", because its oracle is math.Exp
// and math.Exp's own amd64 body fuses: its vector lanes run the
// instructions of math.Exp's FMA branch, and only where math.Exp takes that
// branch (useAVX2 and hasFMA); everywhere else its portable loop is math.Exp
// itself. TestExpShiftMatchesMathExp holds it to math.Exp at 0 ULP.
//
// The wrappers in rowprim_amd64.go or rowprim_noasm.go pick the tier
// through useAVX512 and useAVX2 (and expShift also through hasFMA), which
// are set once when the package initialises, from CPUID and XGETBV;
// useAVX512 implies useAVX2. There is no flag, environment variable or
// build tag behind them but purego; a test that wants another tier on this
// host sets them for its duration (see eachImpl in rowprim_test.go), and
// `go test -tags purego` builds the package without the assembly.

// kernelImpls names the tiers of the row primitives, widest first: what
// KernelImpl returns and what a benchmark file may record.
var kernelImpls = [...]string{"avx512", "avx2", "generic"}

// KernelImpls lists every name KernelImpl can return, widest tier first.
func KernelImpls() []string { return slices.Clone(kernelImpls[:]) }

// KernelImpl names the tier of the row primitives this process runs, one of
// KernelImpls, for benchmark files to record next to their timings. It
// reports the choice; nothing sets it.
func KernelImpl() string {
	switch {
	case useAVX512:
		return kernelImpls[0]
	case useAVX2:
		return kernelImpls[1]
	}
	return kernelImpls[2]
}

// axpyRowsGeneric adds rows of b, scaled, to o: for q = 0 … len(offs)-1 in
// order, o[j] += coefs[q]·b[offs[q]+j] for every j < len(o). Four rows at a
// time share one sweep over o, each o[j] receiving its four terms left to
// right — the same chain of roundings as four single sweeps, with o loaded
// and stored once instead of four times; the last one to three rows are
// single sweeps.
func axpyRowsGeneric(o, b []float64, offs []int, coefs []float64) {
	coefs = coefs[:len(offs)]
	q := 0
	for ; q+4 <= len(offs); q += 4 {
		c0, c1, c2, c3 := coefs[q], coefs[q+1], coefs[q+2], coefs[q+3]
		b0 := b[offs[q]:][:len(o)]
		b1 := b[offs[q+1]:][:len(o)]
		b2 := b[offs[q+2]:][:len(o)]
		b3 := b[offs[q+3]:][:len(o)]
		for j := range o {
			o[j] = (((o[j] + c0*b0[j]) + c1*b1[j]) + c2*b2[j]) + c3*b3[j]
		}
	}
	for ; q < len(offs); q++ {
		c0 := coefs[q]
		b0 := b[offs[q]:][:len(o)]
		for j := range o {
			o[j] += c0 * b0[j]
		}
	}
}

// compactRowGeneric left-packs the coefficients of src that are not ±0 into
// coef, in order, each with its offset off0 + p·step (p its index in src)
// at the same index of off, and returns how many it kept: NaN, ±Inf and
// subnormals are kept. coef and off are at least as long as src. Every
// entry is stored and its slot kept only if its bits are not ±0 — shifting
// the sign bit out leaves zero for exactly ±0, and u|−u has its top bit set
// for every other pattern — because behind a ReLU the zero test is a coin
// flip, and as a mispredicted branch per entry it cost as much as the
// arithmetic it guards.
func compactRowGeneric(coef []float64, off []int, src []float64, off0, step int) int {
	nz := 0
	for p, c := range src {
		coef[nz], off[nz] = c, off0+p*step
		u := math.Float64bits(c) << 1
		nz += int((u | -u) >> 63)
	}
	return nz
}

// dotTileGeneric is the a·bᵀ tile: o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k + p]
// for four rows of a against four rows of b, as two passes of the 2×4
// register tile — eight accumulators, each one output element's plain dot
// product over ascending p.
func dotTileGeneric(o []float64, ldo int, a, b []float64, k int) {
	for r := 0; r < 4; r += 2 {
		a0 := a[r*k : (r+1)*k]
		a1 := a[(r+1)*k:][:len(a0)]
		b0, b1, b2, b3 := b[:len(a0)], b[k:][:len(a0)], b[2*k:][:len(a0)], b[3*k:][:len(a0)]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for p, x0 := range a0 {
			x1 := a1[p]
			y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
			s00 += x0 * y0
			s01 += x0 * y1
			s02 += x0 * y2
			s03 += x0 * y3
			s10 += x1 * y0
			s11 += x1 * y1
			s12 += x1 * y2
			s13 += x1 * y3
		}
		o0, o1 := o[r*ldo:r*ldo+4], o[(r+1)*ldo:(r+1)*ldo+4]
		o0[0], o0[1], o0[2], o0[3] = s00, s01, s02, s03
		o1[0], o1[1], o1[2], o1[3] = s10, s11, s12, s13
	}
}

// dotTile8Generic is the 8×8 a·bᵀ tile, o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k
// + p] for eight rows of a against eight rows of b, as four dotTile calls:
// every output is its own chain, so how the tile is cut does not move a bit.
// It is dotTile8 on every tier without an 8×8 body of its own.
func dotTile8Generic(o []float64, ldo int, a, b []float64, k int) {
	for r := 0; r < 8; r += 4 {
		for j := 0; j < 8; j += 4 {
			dotTile(o[r*ldo+j:], ldo, a[r*k:], b[j*k:], k)
		}
	}
}

// sqDistTileGeneric is the squared-distance tile:
// o[r·4 + j] = Σ_i (a[r][i] − b[j][i])² over ascending i, for four rows of a
// against four rows of b, all of one length — SqDist's loop, one
// accumulator per output, as two passes of a 2×4 register tile.
func sqDistTileGeneric(o *[16]float64, a, b *[4][]float64) {
	b0 := b[0]
	b1, b2, b3 := b[1][:len(b0)], b[2][:len(b0)], b[3][:len(b0)]
	for r := 0; r < 4; r += 2 {
		a0, a1 := a[r][:len(b0)], a[r+1][:len(b0)]
		var s00, s01, s02, s03, s10, s11, s12, s13 float64
		for i, x0 := range a0 {
			x1 := a1[i]
			y0, y1, y2, y3 := b0[i], b1[i], b2[i], b3[i]
			d00, d01, d02, d03 := x0-y0, x0-y1, x0-y2, x0-y3
			d10, d11, d12, d13 := x1-y0, x1-y1, x1-y2, x1-y3
			s00 += d00 * d00
			s01 += d01 * d01
			s02 += d02 * d02
			s03 += d03 * d03
			s10 += d10 * d10
			s11 += d11 * d11
			s12 += d12 * d12
			s13 += d13 * d13
		}
		o[r*4], o[r*4+1], o[r*4+2], o[r*4+3] = s00, s01, s02, s03
		o[r*4+4], o[r*4+5], o[r*4+6], o[r*4+7] = s10, s11, s12, s13
	}
}

// biasRowsGeneric adds bias to every row of y (len(y) is a multiple of
// len(bias)): y[i·n + j] += bias[j], then, when relu is set,
// y[i·n + j] = reluBits(y[i·n + j]).
func biasRowsGeneric(y, bias []float64, relu bool) {
	if len(bias) == 0 {
		return
	}
	for i := 0; i+len(bias) <= len(y); i += len(bias) {
		row := y[i:][:len(bias)]
		if relu {
			for j, b := range bias {
				row[j] = reluBits(row[j] + b)
			}
		} else {
			for j, b := range bias {
				row[j] += b
			}
		}
	}
}

// sgdStepGeneric is an SGD step over v from its gradients g, one element
// at a time. With vel it is the momentum form, each element in this order:
//
//	t = wd·v; grad = g + t; vel = mom·vel + grad; v = v − lr·vel
//
// and with vel nil the plain form, t = wd·v; grad = g + t; v = v − lr·grad;
// every operation rounded to float64 on its own. g and a non-nil vel are as
// long as v.
func sgdStepGeneric(v, g, vel []float64, lr, mom, wd float64) {
	g = g[:len(v)]
	if vel == nil {
		for j := range v {
			grad := g[j] + wd*v[j]
			v[j] -= lr * grad
		}
		return
	}
	vel = vel[:len(v)]
	for j := range v {
		grad := g[j] + wd*v[j]
		vel[j] = mom*vel[j] + grad
		v[j] -= lr * vel[j]
	}
}

// sumSquaresGeneric returns Σ x[i]² in sixteen chains: the square of x[i]
// is added to chain i mod 16 for every i below the last multiple of four,
// the last one to three squares to a chain of their own, t, in order; then
// with a[l] = (s[l] + s[4+l]) + (s[8+l] + s[12+l]) the sum is
// ((a[0] + a[2]) + (a[1] + a[3])) + t. Every square is rounded before it is
// added. This is the order the four-lane body sums in, not the serial one.
func sumSquaresGeneric(x []float64) float64 {
	var s [16]float64
	i := 0
	for ; i+16 <= len(x); i += 16 {
		b := x[i:][:16]
		for c, v := range b {
			s[c] += v * v
		}
	}
	for ; i+4 <= len(x); i += 4 {
		b, c := x[i:][:4], i%16
		s[c] += b[0] * b[0]
		s[c+1] += b[1] * b[1]
		s[c+2] += b[2] * b[2]
		s[c+3] += b[3] * b[3]
	}
	var t float64
	for _, v := range x[i:] {
		t += v * v
	}
	var a [4]float64
	for l := range a {
		a[l] = (s[l] + s[4+l]) + (s[8+l] + s[12+l])
	}
	return ((a[0] + a[2]) + (a[1] + a[3])) + t
}

// scaleGeneric multiplies every element of x by c.
func scaleGeneric(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// expShiftGeneric writes dst[i] = math.Exp(src[i] − shift) for every
// i < len(dst), from a src at least as long.
func expShiftGeneric(dst, src []float64, shift float64) {
	src = src[:len(dst)]
	for i, x := range src {
		dst[i] = math.Exp(x - shift)
	}
}

// reluMaskGeneric writes dst[i] = g[i] where y[i] > 0 and +0 elsewhere
// (±0, negatives, NaN), for equally long dst, g and y.
func reluMaskGeneric(dst, g, y []float64) {
	g, y = g[:len(dst)], y[:len(dst)]
	for i, v := range g {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(y[i]))
	}
}

// ReLU on the bit pattern. The activation's sign is a coin flip per
// element, so `if v <= 0` and `if y > 0` mispredict half the time in the
// portable sweeps of a training step; the integer forms below decide
// exactly what those comparisons decide, special values included, as the
// assembly's VCMPPD does (TestAddRowVecMatchesScalarLoops,
// TestReLUGradMatchesScalarLoop and nn's TestReLUSpecialValues hold both to
// the plain ifs).

const (
	signBit = 1 << 63
	infBits = 0x7FF << 52 // +Inf; anything above it, sign aside, is a NaN
)

// reluBits returns +0 where v <= 0 (negatives, −Inf, both zeros) and v
// itself elsewhere — NaN of either sign included, so a poisoned
// pre-activation stays visible.
func reluBits(v float64) float64 {
	u := math.Float64bits(v)
	// Top bit of drop: sign set, and infBits−|v| did not wrap (not a NaN).
	drop := u &^ (infBits - u&^signBit)
	return math.Float64frombits(u &^ uint64(int64(drop)>>63))
}

// positiveMask is all ones where y > 0 and zero elsewhere (±0, negatives,
// NaN): y > 0 ⇔ 1 ≤ bits(y) ≤ infBits, and the top bit of u, u−1 or
// infBits−u is set exactly when u is negative, zero or past +Inf.
func positiveMask(y float64) uint64 {
	u := math.Float64bits(y)
	return ^uint64(int64(u|(u-1)|(infBits-u)) >> 63)
}
