//go:build !purego

package tensor

import "math"

// useAVX2 selects the assembly row primitives, and useAVX512 their AVX-512
// bodies where a primitive has one; useAVX512 implies useAVX2. Both are
// written once, here, from the CPU probe; only tests assign them afterwards
// (to run every tier against the oracle in one binary).
var (
	useAVX2   = cpuHasAVX2()
	useAVX512 = useAVX2 && cpuHasAVX512()
)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the CPU has AVX512F and the OS saves opmask
// and ZMM state.
func cpuHasAVX512() bool

// hasFMA is whether the CPU reports FMA; with useAVX2 it is where math.Exp
// runs its fused multiply-add branch, the one expShiftAVX2 repeats.
var hasFMA = cpuHasFMA()

// cpuHasFMA reports CPUID.1:ECX bit 12, FMA.
func cpuHasFMA() bool

//go:noescape
func axpyRowsAVX2(o, b []float64, offs []int, coefs []float64, write bool)

//go:noescape
func axpyRowsAVX512(o, b []float64, offs []int, coefs []float64, write bool)

//go:noescape
func compactRowAVX2(coef []float64, off []int, src []float64, off0, step int) int

//go:noescape
func dotTileAVX2(o []float64, ldo int, a, b []float64, k int)

//go:noescape
func dotTile8AVX512(o []float64, ldo int, a, b []float64, k int)

//go:noescape
func sqDistTileAVX2(o *[16]float64, a, b *[4][]float64)

//go:noescape
func biasRowsAVX2(y, bias []float64, relu bool)

//go:noescape
func reluMaskAVX2(dst, g, y []float64)

//go:noescape
func expShiftAVX2(dst, src []float64, shift float64) int

//go:noescape
func sgdStepAVX2(v, g, vel []float64, lr, mom, wd float64, fresh bool)

//go:noescape
func sumSquaresAVX2(x []float64) float64

//go:noescape
func scaleAVX2(x []float64, c float64)

// axpyRows computes, for q = 0 … len(offs)-1 in order,
// o[j] += coefs[q]·b[offs[q]+j] for every j < len(o); with write, o is not
// read and every o[j] starts at +0 (axpyRowsGeneric). The offsets must
// ascend, as every caller passes them: the first is then the lowest and the
// last row ends furthest into b, so checking those two covers every row. A
// call without rows, which only a write form stores anything for, takes the
// portable loop on every tier.
func axpyRows(o, b []float64, offs []int, coefs []float64, write bool) {
	if useAVX2 && len(offs) > 0 {
		_ = coefs[:len(offs)]
		_, _ = b[offs[0]:], b[offs[len(offs)-1]:][:len(o)] // the assembly trusts these extents
		if useAVX512 {
			axpyRowsAVX512(o, b, offs, coefs, write)
			return
		}
		axpyRowsAVX2(o, b, offs, coefs, write)
		return
	}
	axpyRowsGeneric(o, b, offs, coefs, write)
}

// compactRow left-packs the entries of src whose bits are not ±0 into coef,
// each with its offset off0 + p·step into off, and returns how many it kept.
// The assembly stores whole groups of four lanes at the next free slot, so
// coef and off must be at least as long as src.
func compactRow(coef []float64, off []int, src []float64, off0, step int) int {
	if useAVX2 {
		_, _ = coef[:len(src)], off[:len(src)] // the assembly trusts these extents
		return compactRowAVX2(coef, off, src, off0, step)
	}
	return compactRowGeneric(coef, off, src, off0, step)
}

// dotTile computes the 4×4 tile o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k + p]
// over ascending p: a and b each hold four rows of length k, and o reaches
// from the tile's first element to at least its last (ldo ≥ 4).
func dotTile(o []float64, ldo int, a, b []float64, k int) {
	if useAVX2 {
		_, _, _ = o[3*ldo+3], a[:4*k], b[:4*k] // the assembly trusts these extents
		dotTileAVX2(o, ldo, a, b, k)
		return
	}
	dotTileGeneric(o, ldo, a, b, k)
}

// dotTile8 computes the 8×8 tile o[r·ldo + j] = Σ_p a[r·k + p]·b[j·k + p]
// over ascending p: a and b each hold eight rows of length k, and o reaches
// from the tile's first element to at least its last (ldo ≥ 8). Only the
// AVX-512 tier has a body of its own.
func dotTile8(o []float64, ldo int, a, b []float64, k int) {
	if useAVX512 {
		_, _, _ = o[7*ldo+7], a[:8*k], b[:8*k] // the assembly trusts these extents
		dotTile8AVX512(o, ldo, a, b, k)
		return
	}
	dotTile8Generic(o, ldo, a, b, k)
}

// sqDistTile computes o[r·4 + j] = Σ_i (a[r][i] − b[j][i])² over ascending
// i; the caller has checked that all eight rows have one length.
func sqDistTile(o *[16]float64, a, b *[4][]float64) {
	if useAVX2 {
		sqDistTileAVX2(o, a, b)
		return
	}
	sqDistTileGeneric(o, a, b)
}

// biasRows adds bias to every row of y and then, when relu is set, applies
// ReLU; the caller has checked that len(y) is a multiple of len(bias).
func biasRows(y, bias []float64, relu bool) {
	if useAVX2 {
		biasRowsAVX2(y, bias, relu)
		return
	}
	biasRowsGeneric(y, bias, relu)
}

// reluMask writes dst[i] = g[i] where y[i] > 0 and +0 elsewhere; the caller
// has checked that g and y are as long as dst.
func reluMask(dst, g, y []float64) {
	if useAVX2 {
		reluMaskAVX2(dst, g, y)
		return
	}
	reluMaskGeneric(dst, g, y)
}

// expShift writes dst[i] = math.Exp(src[i] − shift); the caller has checked
// that src is at least as long as dst. The assembly stops at the first group of four
// holding a lane it leaves to math.Exp, and the group runs here, one element
// at a time, before the assembly resumes after it.
func expShift(dst, src []float64, shift float64) {
	if !useAVX2 || !hasFMA {
		expShiftGeneric(dst, src, shift)
		return
	}
	src = src[:len(dst)]
	for i := 0; i < len(dst); {
		i += expShiftAVX2(dst[i:], src[i:], shift)
		for end := min(i+4, len(dst)); i < end; i++ {
			dst[i] = math.Exp(src[i] - shift)
		}
	}
}

// sgdStep is one SGD step over v: the momentum form with vel, the plain
// form with vel nil; with fresh, vel is written but not read, taken as +0
// (sgdStepGeneric). The caller has checked that g, and vel when non-nil,
// are as long as v.
func sgdStep(v, g, vel []float64, lr, mom, wd float64, fresh bool) {
	if useAVX2 {
		sgdStepAVX2(v, g, vel, lr, mom, wd, fresh)
		return
	}
	sgdStepGeneric(v, g, vel, lr, mom, wd, fresh)
}

// sumSquares is Σ x[i]² in sumSquaresGeneric's sixteen chains.
func sumSquares(x []float64) float64 {
	if useAVX2 {
		return sumSquaresAVX2(x)
	}
	return sumSquaresGeneric(x)
}

// scale multiplies every element of x by c.
func scale(x []float64, c float64) {
	if useAVX2 {
		scaleAVX2(x, c)
		return
	}
	scaleGeneric(x, c)
}
