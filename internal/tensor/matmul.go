package tensor

import (
	"fmt"
	"math"
)

// The MatMul family is the hot path of every SSL forward/backward pass.
// All three products run on two micro-kernels, each restricted to a
// contiguous range of output rows, and each a Go loop nest around the row
// primitives of rowprim.go:
//
//  1. mulRowsRange, the fused row kernel behind a·b and aᵀ·b. Both products
//     are, per output row, orow += Σ_p coef_p·b[p,:] with coef_p = a[i,p]
//     resp. a[p,i], and both skip coef_p == 0 (ReLU activations make a
//     sparse, and 0·Inf must never be formed). The kernel compresses the
//     non-zero coefficients of a block of blockK values of p once, without
//     a branch (behind a ReLU the zero test is a coin flip, and as a
//     mispredicted branch per (i,p) it cost as much as the arithmetic it
//     guards), and then streams orow with four b rows fused per pass
//     (axpyRows),
//     orow[j] = (((orow[j] + c0·b0[j]) + c1·b1[j]) + c2·b2[j]) + c3·b3[j],
//     which is the same left-to-right chain of roundings as four separate
//     orow[j] += c·b[j] sweeps (what a remainder under four gets) but
//     loads and stores orow once instead of four times.
//  2. matMulTransBRange, a 4×4 tile behind a·bᵀ. Rows of both operands are
//     contiguous, so four a rows meet four b rows in sixteen accumulators
//     (dotTile), each a plain dot product over ascending p.
//
// What is Go and what is not: blocking, coefficient compression, tiling,
// row splitting and the clear are here, once, for every platform. Only the
// innermost loops over j (axpyRows) and p (dotTile) are primitives, with
// a portable Go body and, on amd64 with AVX2, an assembly body that runs
// the same multiply-then-add per element four elements at a time — see
// rowprim.go for why that is bit-identical and how the choice is made.
//
// The serial entries (MatMulSerialInto and friends) are those kernels over
// the full row range; the public entries (MatMulInto and friends) split the
// rows across the shared worker pool (see pool.go) once a product is large
// enough to amortise dispatch.
//
// Determinism guarantee: every output element is produced by exactly one
// goroutine, in a single accumulator (one vector lane, in the assembly),
// summing over the inner dimension in ascending order and skipping exactly
// the terms whose coefficient is zero — the order of the naive triple
// loops, which live on in matmul_oracle_test.go as the oracle. Fusing,
// tiling, vectorising and row splitting only change which elements are in
// flight together, never the order of one element's roundings, so results
// are bit-identical for any worker count, for either implementation of the
// primitives, and to the naive loops (0 ULP, special values included),
// which the property and fuzz tests assert exactly.

const (
	// serialFLOPs is the m·k·n product up to which a product runs on the
	// calling goroutine alone. Measured with the AVX2 primitives on two
	// cores (fastest of N, serial against a two-way split): waking a pool
	// worker costs some tens of microseconds, which the vector kernels
	// cover about three times as much arithmetic in as the scalar ones did.
	// From 0.9M to 1.3M multiply-adds the split loses (0.81–1.07×), at 1.4M
	// it breaks even (0.98–1.07×), and it pays from 2.1M up (1.03–1.3× at
	// 128³ and 32×256×256, 1.4–1.6× at the wide model's 32×1024×256,
	// 1.7–1.9× at 256³). The constant sits at the low edge of that band —
	// three times the value the scalar kernels had. The federation's
	// small-batch products (32 rows by at most 96×48) stay serial and
	// allocation-free. Compared in int64 so the product cannot wrap on
	// 32-bit architectures.
	serialFLOPs int64 = 3 << 19

	// blockK is how many values of the inner index p the row kernel
	// compresses per pass: blockK rows of b stay hot while every output
	// row of the range consumes them, and the non-zero coefficients of one
	// pass live in a fixed-size stack buffer.
	blockK = 64

	// minRowsPerTask bounds how finely parallelRows may split the output,
	// keeping per-task work large enough to amortize dispatch (and whole
	// 4-row tiles in every task of the a·bᵀ kernel). Re-measured with
	// serialFLOPs: 4, 8 and 16 are indistinguishable at the 32-row batches
	// every workload trains on.
	minRowsPerTask = 8
)

// MatMul returns the matrix product a (m×k) by b (k×n) as a new m×n tensor.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMul needs 2-D operands, got %v and %v", ErrShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMul inner dims %d vs %d", ErrShape, k, k2)
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out, nil
}

// serialSized reports whether an m×k×n product with m output rows should run
// on the calling goroutine alone instead of being split across the pool.
func serialSized(m, k, n int) bool {
	return int64(m)*int64(k)*int64(n) <= serialFLOPs || m < 2*minRowsPerTask || Workers() == 1
}

// MatMulInto computes out = a·b assuming shapes are already compatible.
// It is the allocation-free core used by MatMul and by the autograd backward
// passes. out must not alias a or b. Results are bit-identical to
// MatMulSerialInto for any worker-pool size.
func MatMulInto(out, a, b *Tensor) {
	m := a.shape[0]
	if serialSized(m, a.shape[1], b.shape[1]) {
		matMulRange(out, a, b, 0, m)
		return
	}
	parallelRows(m, minRowsPerTask, func(lo, hi int) { matMulRange(out, a, b, lo, hi) })
}

// MatMulTransAInto computes out = aᵀ·b where a is (k×m), b is (k×n),
// out is (m×n). Used by Linear backward for weight gradients. Results are
// bit-identical to MatMulTransASerialInto for any worker-pool size.
func MatMulTransAInto(out, a, b *Tensor) {
	m := a.shape[1]
	if serialSized(m, a.shape[0], b.shape[1]) {
		matMulTransARange(out, a, b, 0, m)
		return
	}
	parallelRows(m, minRowsPerTask, func(lo, hi int) { matMulTransARange(out, a, b, lo, hi) })
}

// MatMulTransBInto computes out = a·bᵀ where a is (m×k), b is (n×k),
// out is (m×n). Used by Linear backward for input gradients. Results are
// bit-identical to MatMulTransBSerialInto for any worker-pool size.
func MatMulTransBInto(out, a, b *Tensor) {
	m := a.shape[0]
	if serialSized(m, a.shape[1], b.shape[0]) {
		matMulTransBRange(out, a, b, 0, m)
		return
	}
	parallelRows(m, minRowsPerTask, func(lo, hi int) { matMulTransBRange(out, a, b, lo, hi) })
}

// MatMulSerialInto is MatMulInto on the calling goroutine alone. It is
// exported so benchmarks and property tests can compare the pooled path
// against it; production code should call MatMulInto.
func MatMulSerialInto(out, a, b *Tensor) { matMulRange(out, a, b, 0, a.shape[0]) }

// MatMulTransASerialInto is MatMulTransAInto on the calling goroutine alone.
func MatMulTransASerialInto(out, a, b *Tensor) { matMulTransARange(out, a, b, 0, a.shape[1]) }

// MatMulTransBSerialInto is MatMulTransBInto on the calling goroutine alone.
func MatMulTransBSerialInto(out, a, b *Tensor) { matMulTransBRange(out, a, b, 0, a.shape[0]) }

// matMulRange computes rows [lo, hi) of out = a·b: coefficient (i, p) is
// a[i·k + p].
func matMulRange(out, a, b *Tensor, lo, hi int) {
	k := a.shape[1]
	mulRowsRange(out.data, a.data, b.data, k, b.shape[1], k, 1, lo, hi)
}

// matMulTransARange computes rows [lo, hi) of out = aᵀ·b (a is k×m):
// coefficient (i, p) is a[p·m + i].
func matMulTransARange(out, a, b *Tensor, lo, hi int) {
	k, m := a.shape[0], a.shape[1]
	mulRowsRange(out.data, a.data, b.data, k, b.shape[1], 1, m, lo, hi)
}

// mulRowsRange is the fused row kernel: for every output row i in [lo, hi),
// out[i,:] = Σ_p coef(i,p)·b[p,:] over ascending p, skipping zero
// coefficients, where coef(i,p) = a[i·strideI + p·strideP] and b is k×n.
// p advances in blocks of blockK so that a block of b rows is reused by the
// whole row range while hot; within a block each row's non-zero
// coefficients are compressed once and then applied by axpyRows, four b
// rows per pass over the output row. Every out[i,j] still receives its
// terms one at a time, in ascending p, through a single accumulator.
func mulRowsRange(out, a, b []float64, k, n, strideI, strideP, lo, hi int) {
	clear(out[lo*n : hi*n])
	var (
		coef [blockK]float64
		brow [blockK]int // offset of the coefficient's b row
	)
	for p0 := 0; p0 < k; p0 += blockK {
		p1 := min(p0+blockK, k)
		for i := lo; i < hi; i++ {
			nz := 0
			for p, at := p0, i*strideI+p0*strideP; p < p1; p, at = p+1, at+strideP {
				// Store unconditionally, keep the slot only if c != 0: shifting
				// the sign bit out leaves zero for exactly ±0, and u|−u has its
				// top bit set for every other pattern (NaN and Inf included).
				c := a[at]
				coef[nz], brow[nz] = c, p*n
				u := math.Float64bits(c) << 1
				nz += int((u | -u) >> 63)
			}
			axpyRows(out[i*n:(i+1)*n], b, brow[:nz], coef[:nz])
		}
	}
}

// matMulTransBRange is the a·bᵀ kernel: rows [lo, hi) of
// out[i,j] = Σ_p a[i,p]·b[j,p] with a m×k and b n×k. Rows of both operands
// are contiguous, so four a rows meet four b rows in one dotTile, sixteen
// accumulators that are each one output element's plain dot product over
// ascending p (no zero skip — this product never had one). Trailing rows
// and trailing <4 columns fall to dotRow, the same dot product one element
// at a time.
func matMulTransBRange(outT, aT, bT *Tensor, lo, hi int) {
	out, a, b := outT.data, aT.data, bT.data
	k, n := aT.shape[1], bT.shape[0]
	i := lo
	for ; i+4 <= hi; i += 4 {
		j := 0
		for ; j+4 <= n; j += 4 {
			dotTile(out[i*n+j:(i+3)*n+j+4], n, a[i*k:(i+4)*k], b[j*k:(j+4)*k], k)
		}
		for r := i; r < i+4 && j < n; r++ {
			dotRow(out[r*n:(r+1)*n], a[r*k:(r+1)*k], b, j)
		}
	}
	for ; i < hi; i++ {
		dotRow(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, 0)
	}
}

// dotRow fills orow[j0:] with the dot products of arow and rows j0… of b
// (row length len(arow)): the scalar tail of matMulTransBRange.
func dotRow(orow, arow, b []float64, j0 int) {
	for j := j0; j < len(orow); j++ {
		brow := b[j*len(arow):][:len(arow)]
		var s float64
		for p, x := range arow {
			s += x * brow[p]
		}
		orow[j] = s
	}
}
