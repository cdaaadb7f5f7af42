//go:build !amd64 || purego

package tensor

// useAVX2 is never true on a build without the assembly; it exists so that
// KernelImpl and the tests that run every implementation compile here too
// (the tests skip the assembly leg).
var useAVX2 = false

func axpyRows(o, b []float64, offs []int, coefs []float64) { axpyRowsGeneric(o, b, offs, coefs) }

func dotTile(o []float64, ldo int, a, b []float64, k int) { dotTileGeneric(o, ldo, a, b, k) }

func sqDistTile(o *[16]float64, a, b *[4][]float64) { sqDistTileGeneric(o, a, b) }

func biasRows(y, bias []float64, relu bool) { biasRowsGeneric(y, bias, relu) }

func reluMask(dst, g, y []float64) { reluMaskGeneric(dst, g, y) }

func expShift(dst, src []float64, shift float64) { expShiftGeneric(dst, src, shift) }
