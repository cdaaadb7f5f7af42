// Package tensor implements dense row-major float64 tensors and the linear
// algebra kernels used by the neural-network substrate in internal/nn.
//
// Tensors are deliberately simple: a shape and a flat backing slice. All
// operations are implemented on the standard library only. Two-dimensional
// tensors (matrices) are the workhorse; a handful of helpers exist for 1-D
// vectors. Operations either allocate a fresh result or, when suffixed with
// Into, write into a caller-provided destination to avoid allocation in hot
// loops.
//
// # Kernels
//
// The MatMul family (MatMulInto, MatMulTransAInto, MatMulTransBInto) runs
// on two order-preserving micro-kernels — a fused row kernel for a·b and
// aᵀ·b, a 4×4 tile of dot products for a·bᵀ (see matmul.go). Their
// blocking, zero-skipping and tiling are Go; their innermost loops are the
// two row primitives of rowprim.go, axpyRows (add scaled rows to a row,
// also the body of AddScaled) and dotTile. Each primitive has a portable Go
// loop and, on amd64, an AVX2 assembly loop (rowprim_amd64.s) that does the
// same multiply-then-add per element, four elements per instruction —
// never a fused multiply-add, which would drop the product's rounding. The
// package picks once, at initialisation, from CPUID and XGETBV (AVX2
// present, YMM state saved by the OS); other architectures, the purego
// build tag and CPUs without AVX2 run the portable loops. There is nothing
// to configure: KernelImpl reports which one runs, and a test that needs
// the portable loops on an AVX2 host flips the unexported useAVX2 switch
// (eachImpl in rowprim_test.go) or builds with -tags purego.
//
// Large products split their output rows across a package-level worker
// pool (see pool.go). The pool is shared by every kernel call in the
// process and is sized by GOMAXPROCS, overridable with SetWorkers or the
// CALIBRE_KERNEL_WORKERS environment variable — so caller-level concurrency
// (for example internal/fl training many clients at once) composes with
// kernel parallelism without oversubscribing the CPU. Products below a size
// threshold run on the calling goroutine alone.
//
// # Determinism
//
// Pooled kernels are bit-for-bit identical to the serial entries
// (MatMulSerialInto and friends) for any worker count, the assembly
// primitives to the portable ones, and all of them to the naive triple
// loops: each output element is produced by exactly one goroutine, in one
// accumulator (one vector lane), reducing over the inner dimension in
// ascending order. Changing worker counts, or the CPU a binary runs on,
// never changes results. (Across different architectures the usual Go
// caveat applies — the compiler may fuse multiply-adds in the portable
// loops, so bit-identity is guaranteed per build, not between, say, amd64
// and arm64 binaries.)
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operands have
// incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
	// dims backs shape for tensors of up to two dimensions — every tensor the
	// training path builds — so a header and its shape are one object, and an
	// arena can rebind a recycled header to a new shape without allocating.
	// A Tensor therefore must not be copied by value.
	dims [2]int
}

// newHeader returns a tensor header over data that owns a copy of shape.
func newHeader(shape []int, data []float64) *Tensor {
	return new(Tensor).bind(shape, data)
}

// bind points the header at data and at its own copy of shape (in dims when
// it fits), and returns it.
func (t *Tensor) bind(shape []int, data []float64) *Tensor {
	t.shape, t.data = append(t.dims[:0], shape...), data
	return t
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero-dimension tensor is valid
// and has no elements.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return newHeader(shape, make([]float64, n))
}

// View returns a tensor of the given shape over data itself, not a copy:
// writes through either are seen by both. It is how a layer's parameter
// tensors come to be windows into one model-wide vector. It panics if data
// does not hold exactly the shape's elements.
func View(data []float64, shape ...int) *Tensor {
	if n := numElements(shape); n != len(data) {
		panic(fmt.Sprintf("tensor: View of %d elements as shape %v (%d elements)", len(data), shape, n))
	}
	return newHeader(shape, data)
}

// NewLike returns a zero-filled tensor with t's shape.
func NewLike(t *Tensor) *Tensor {
	return newHeader(t.shape, make([]float64, len(t.data)))
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// At returns the element at the given (row-major) indices of a 2-D tensor.
func (t *Tensor) At(i, j int) float64 {
	return t.data[i*t.shape[1]+j]
}

// Set assigns the element at (i, j) of a 2-D tensor.
func (t *Tensor) Set(i, j int, v float64) {
	t.data[i*t.shape[1]+j] = v
}

// Row returns the i-th row of a 2-D tensor as a slice view (not a copy).
func (t *Tensor) Row(i int) []float64 {
	c := t.shape[1]
	return t.data[i*c : (i+1)*c]
}

// SetRow copies v into row i of a 2-D tensor.
func (t *Tensor) SetRow(i int, v []float64) {
	copy(t.Row(i), v)
}

// Rows returns the number of rows of a 2-D tensor (shape[0]).
func (t *Tensor) Rows() int { return t.shape[0] }

// Cols returns the number of columns of a 2-D tensor (shape[1]).
func (t *Tensor) Cols() int { return t.shape[1] }

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(fmt.Sprintf("%v", t.shape))
	if len(t.data) <= 64 {
		b.WriteByte('[')
		for i, v := range t.data {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
		}
		b.WriteByte(']')
	} else {
		b.WriteString(fmt.Sprintf("(%d elems)", len(t.data)))
	}
	return b.String()
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// RandN fills a new tensor of the given shape with samples from
// N(0, std^2) drawn from rng.
func RandN(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
	return t
}

// --- Elementwise ----------------------------------------------------------

// Add returns a + b elementwise.
func Add(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("%w: Add %v vs %v", ErrShape, a.shape, b.shape)
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out, nil
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("%w: Sub %v vs %v", ErrShape, a.shape, b.shape)
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out, nil
}

// Scale returns a*s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AddScaled computes dst += s*src in place. Shapes must match.
func AddScaled(dst, src *Tensor, s float64) error {
	if !SameShape(dst, src) {
		return fmt.Errorf("%w: AddScaled %v vs %v", ErrShape, dst.shape, src.shape)
	}
	axpyRows(dst.data, src.data, []int{0}, []float64{s})
	return nil
}

// --- Into variants ----------------------------------------------------------
//
// The Into forms write into a caller-provided destination (typically borrowed
// from an Arena) instead of allocating. Every destination element is
// overwritten, so dirty buffers are fine. Unless noted, dst may alias an
// operand.

// AddInto computes dst = a + b elementwise. All three shapes must match.
func AddInto(dst, a, b *Tensor) error {
	if !SameShape(a, b) || !SameShape(dst, a) {
		return fmt.Errorf("%w: AddInto %v = %v + %v", ErrShape, dst.shape, a.shape, b.shape)
	}
	for i := range a.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return nil
}

// SubInto computes dst = a - b elementwise. All three shapes must match.
func SubInto(dst, a, b *Tensor) error {
	if !SameShape(a, b) || !SameShape(dst, a) {
		return fmt.Errorf("%w: SubInto %v = %v - %v", ErrShape, dst.shape, a.shape, b.shape)
	}
	for i := range a.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return nil
}

// ScaleInto computes dst = a*s elementwise. Shapes must match.
func ScaleInto(dst, a *Tensor, s float64) error {
	if !SameShape(dst, a) {
		return fmt.Errorf("%w: ScaleInto %v = %v * scalar", ErrShape, dst.shape, a.shape)
	}
	for i := range a.data {
		dst.data[i] = a.data[i] * s
	}
	return nil
}

// ApplyInto computes dst = f(a) elementwise. Shapes must match.
func ApplyInto(dst, a *Tensor, f func(float64) float64) error {
	if !SameShape(dst, a) {
		return fmt.Errorf("%w: ApplyInto %v = f(%v)", ErrShape, dst.shape, a.shape)
	}
	for i := range a.data {
		dst.data[i] = f(a.data[i])
	}
	return nil
}

// --- Matrix ops ------------------------------------------------------------

// The MatMul family lives in matmul.go: parallel cache-blocked kernels with
// exported serial references and a bit-for-bit determinism guarantee.

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Dims() != 2 {
		return nil, fmt.Errorf("%w: Transpose needs 2-D operand, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

// AddRowVecInto computes dst = a + v broadcast over rows (bias addition)
// without allocating. dst may alias a.
func AddRowVecInto(dst, a *Tensor, v []float64) error {
	if a.Dims() != 2 || !SameShape(dst, a) || a.shape[1] != len(v) {
		return fmt.Errorf("%w: AddRowVecInto %v = %v + vec(%d)", ErrShape, dst.shape, a.shape, len(v))
	}
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		arow := a.data[i*n : (i+1)*n]
		orow := dst.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = arow[j] + v[j]
		}
	}
	return nil
}

// --- Reductions ------------------------------------------------------------

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element. It panics on an empty tensor.
func (t *Tensor) Max() float64 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ColMeans returns the per-column mean of a 2-D tensor as a length-n slice.
func (t *Tensor) ColMeans() []float64 {
	m, n := t.shape[0], t.shape[1]
	out := make([]float64, n)
	if m == 0 {
		return out
	}
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			out[j] += row[j]
		}
	}
	inv := 1.0 / float64(m)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// --- Row-wise vector math used by SSL losses --------------------------------

// L2NormalizeRows returns a copy of a 2-D tensor whose rows are scaled to
// unit Euclidean norm. Rows with norm below eps are left unchanged.
func L2NormalizeRows(a *Tensor, eps float64) *Tensor {
	out := New(a.shape[0], a.shape[1])
	if err := L2NormalizeRowsInto(out, a, eps); err != nil {
		panic(err) // unreachable: shapes match by construction
	}
	return out
}

// L2NormalizeRowsInto writes row-normalized a into dst. dst may alias a.
func L2NormalizeRowsInto(dst, a *Tensor, eps float64) error {
	if a.Dims() != 2 || !SameShape(dst, a) {
		return fmt.Errorf("%w: L2NormalizeRowsInto %v = norm(%v)", ErrShape, dst.shape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		var ss float64
		for _, v := range row {
			ss += v * v
		}
		norm := math.Sqrt(ss)
		orow := dst.data[i*n : (i+1)*n]
		if norm < eps {
			copy(orow, row)
			continue
		}
		inv := 1 / norm
		for j, v := range row {
			orow[j] = v * inv
		}
	}
	return nil
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	return math.Sqrt(ss)
}

// SqDist returns the squared Euclidean distance between two vectors.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SqDistRows writes dst[r] = SqDist(a, r-th row of rows), where rows holds
// len(dst) consecutive vectors of len(a) elements, bit for bit: every row's
// sum is still Σ (a[i]−row[i])² over ascending i in an accumulator of its
// own. Four rows go through one pass over a, so four independent additions
// are in flight where a single SqDist waits out each one's latency. It
// panics when len(rows) != len(dst)·len(a).
func SqDistRows(dst, a, rows []float64) {
	d := len(a)
	if len(rows) != len(dst)*d {
		panic(fmt.Sprintf("tensor: SqDistRows got %d values for %d rows of %d", len(rows), len(dst), d))
	}
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		b0, b1, b2, b3 := rows[r*d:][:d], rows[(r+1)*d:][:d], rows[(r+2)*d:][:d], rows[(r+3)*d:][:d]
		var s0, s1, s2, s3 float64
		for i, x := range a {
			d0, d1, d2, d3 := x-b0[i], x-b1[i], x-b2[i], x-b3[i]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < len(dst); r++ {
		dst[r] = SqDist(a, rows[r*d:(r+1)*d])
	}
}

// CosineSim returns the cosine similarity of a and b (0 when either is a
// zero vector).
func CosineSim(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// LogSumExp returns log(Σ exp(v_i)), stabilized.
func LogSumExp(v []float64) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var s float64
	for _, x := range v {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// ArgMax returns the index of the largest element of v (-1 for empty v).
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Stack builds an (m×n) tensor from m rows each of length n.
func Stack(rows [][]float64) (*Tensor, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	n := len(rows[0])
	out := New(len(rows), n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("%w: Stack row %d has length %d, want %d", ErrShape, i, len(r), n)
		}
		copy(out.Row(i), r)
	}
	return out, nil
}
