//go:build !purego

package tensor

// useAVX2 selects the assembly row primitives. It is written once, here,
// from the CPU probe; only tests assign it afterwards (to run the portable
// loops and the assembly against the oracle in one binary).
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuHasAVX2() bool

//go:noescape
func axpyRowsAVX2(o, b []float64, offs []int, coefs []float64)

//go:noescape
func dotTileAVX2(o []float64, ldo int, a, b []float64, k int)

// axpyRows computes, for q = 0 … len(offs)-1 in order,
// o[j] += coefs[q]·b[offs[q]+j] for every j < len(o).
func axpyRows(o, b []float64, offs []int, coefs []float64) {
	if useAVX2 {
		_ = coefs[:len(offs)]
		for _, off := range offs {
			_ = b[off:][:len(o)] // the assembly trusts these extents
		}
		axpyRowsAVX2(o, b, offs, coefs)
		return
	}
	axpyRowsGeneric(o, b, offs, coefs)
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
