package tensor

// The row primitives are the innermost loops of the matmul micro-kernels
// (matmul.go) and of AddScaled: two loop bodies over contiguous float64
// rows — axpyRows, which adds scaled rows to a row, and dotTile, a 4×4 tile
// of dot products — each with two implementations that agree bit for bit.
//
//   - The portable loops in this file are the scalar inner loops the kernels
//     always had, and they are what runs on every build without the
//     assembly: GOARCH other than amd64, the purego build tag, or an amd64
//     CPU without AVX2 (or whose OS does not save YMM state).
//   - rowprim_amd64.s holds the same loops as AVX2 vector loops, four
//     elements per instruction, each lane one output element.
//
// Both run one element's arithmetic as a multiply rounded to float64 and
// then an add rounded to float64, in the order the expression is written.
// That is why the vector loops use VMULPD and VADDPD and never a fused
// multiply-add: an FMA skips the product's rounding, which would change the
// low bits of almost every sum and break every 0-ULP contract in
// ARCHITECTURE.md's determinism table. Vectorising across elements changes
// which elements are in flight together, never the chain of roundings of
// any one of them, so the assembly is held to the same oracle as the loops
// it replaces (matmul_oracle_test.go, rowprim_test.go).
//
// axpyRows and dotTile (rowprim_amd64.go or rowprim_noasm.go) pick the
// implementation through useAVX2, which is set once when the package
// initialises, from CPUID and XGETBV. There is no flag or environment
// variable behind it; a test that wants the portable path on an AVX2 host
// sets useAVX2 = false for its duration (see eachImpl in rowprim_test.go),
// and `go test -tags purego` builds the package without the assembly.

// KernelImpl names the implementation of the row primitives this process
// runs, "avx2" or "generic", for benchmark files to record next to their
// timings. It reports the choice; nothing sets it.
func KernelImpl() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
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
