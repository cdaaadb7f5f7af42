//go:build !amd64 || purego

package tensor

// useAVX2 is never true on a build without the assembly; it exists so that
// KernelImpl and the tests that run every implementation compile here too
// (the tests skip the assembly leg).
var useAVX2 = false

func axpyRows(o, b []float64, offs []int, coefs []float64) { axpyRowsGeneric(o, b, offs, coefs) }

func dotTile(o []float64, ldo int, a, b []float64, k int) { dotTileGeneric(o, ldo, a, b, k) }
