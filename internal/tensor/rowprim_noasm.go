//go:build !amd64 || purego

package tensor

// useAVX2 and useAVX512 are never true on a build without the assembly;
// they exist so that KernelImpl and the tests that run every implementation
// compile here too (the tests skip the assembly legs).
var useAVX2, useAVX512 = false, false

func axpyRows(o, b []float64, offs []int, coefs []float64, write bool) {
	axpyRowsGeneric(o, b, offs, coefs, write)
}

func compactRow(coef []float64, off []int, src []float64, off0, step int) int {
	return compactRowGeneric(coef, off, src, off0, step)
}

func dotTile(o []float64, ldo int, a, b []float64, k int) { dotTileGeneric(o, ldo, a, b, k) }

func dotTile8(o []float64, ldo int, a, b []float64, k int) { dotTile8Generic(o, ldo, a, b, k) }

func sqDistTile(o *[16]float64, a, b *[4][]float64) { sqDistTileGeneric(o, a, b) }

func biasRows(y, bias []float64, relu bool) { biasRowsGeneric(y, bias, relu) }

func reluMask(dst, g, y []float64) { reluMaskGeneric(dst, g, y) }

func expShift(dst, src []float64, shift float64) { expShiftGeneric(dst, src, shift) }

func sgdStep(v, g, vel []float64, lr, mom, wd float64, fresh bool) {
	sgdStepGeneric(v, g, vel, lr, mom, wd, fresh)
}

func sumSquares(x []float64) float64 { return sumSquaresGeneric(x) }

func scale(x []float64, c float64) { scaleGeneric(x, c) }
