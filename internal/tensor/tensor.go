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
// row primitives of rowprim.go, axpyRows (add scaled rows to a row, or
// write their sum from +0; also the body of AddScaled, AddScaledSlice, and
// with unit coefficients of AddRows and AddRowsAt, every group sum) and the
// dotTile tiles. Each primitive has a
// portable Go loop and, on amd64, an AVX2 assembly loop (rowprim_amd64.s)
// that does the same multiply-then-add per element, four elements per
// instruction — never a fused multiply-add, which would drop the product's
// rounding — and axpyRows and the 8×8 dot tile an AVX-512 loop, eight
// elements per instruction. The package picks once, at initialisation,
// from CPUID and XGETBV (AVX2 present and YMM state saved by the OS; for
// the AVX-512 tier also AVX512F and opmask and ZMM state saved); other
// architectures, the purego build tag and CPUs without AVX2 run the
// portable loops. There is nothing to configure: KernelImpl reports which
// tier runs, and a test that needs another tier on this host flips the
// unexported useAVX512 and useAVX2 switches (eachImpl in rowprim_test.go)
// or builds with -tags purego.
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

// Unbound returns a tensor header of the given shape with no storage yet:
// Data is nil and Len 0 until Repoint gives it some.
func Unbound(shape ...int) *Tensor { return newHeader(shape, nil) }

// Repoint points t at data, keeping its shape: the header — and whatever
// holds it — stays the same while the storage under it changes. data must
// hold exactly the shape's elements, or be nil to leave t with no storage.
func (t *Tensor) Repoint(data []float64) {
	if n := numElements(t.shape); data != nil && len(data) != n {
		panic(fmt.Sprintf("tensor: Repoint of shape %v (%d elements) at %d elements", t.shape, n, len(data)))
	}
	t.data = data
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

// Size returns the number of elements t's shape holds: Len once t has
// storage, and also while it has none (Unbound, Repoint(nil)).
func (t *Tensor) Size() int { return numElements(t.shape) }

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
	axpyRows(dst.data, src.data, []int{0}, []float64{s}, false)
	return nil
}

// AddScaledSlice computes dst[i] += s·src[i] for every i, each element one
// rounded product and one rounded sum, as AddScaled does. With write it is
// the first term of such a sum: dst is not read, and dst[i] = +0 + s·src[i],
// the bits a cleared dst would get, a −0 product included. It panics unless
// dst and src are one length.
func AddScaledSlice(dst, src []float64, s float64, write bool) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: AddScaledSlice of %d values into %d", len(src), len(dst)))
	}
	axpyRows(dst, src, []int{0}, []float64{s}, write)
}

// AddScaledRows is AddScaled over consecutive rows of a matrix:
// dst += coefs[q]·rows.Row(first+q) for q = 0 … len(coefs)−1 in order, each
// dst[j] receiving its terms one at a time, left to right — the chain of
// roundings of len(coefs) AddScaled sweeps, run as one axpyRows call (four
// rows per pass over dst). It panics unless rows is a matrix of len(dst)
// columns that has rows first … first+len(coefs)−1.
func AddScaledRows(dst []float64, rows *Tensor, first int, coefs []float64) {
	if rows.Dims() != 2 || rows.shape[1] != len(dst) || first < 0 || rows.shape[0]-first < len(coefs) {
		panic(fmt.Sprintf("tensor: AddScaledRows of %d coefficients from row %d of a %v matrix into %d values", len(coefs), first, rows.shape, len(dst)))
	}
	addScaledRows(dst, rows.data[first*len(dst):], coefs)
}

// AddRows adds every row of rows to dst, top to bottom: dst[j] receives
// rows[0][j], then rows[1][j], … one rounded addition at a time, which is
// how a bias gradient sums a batch's rows. It is AddScaledRows with every
// coefficient 1, the same floats because 1·v is v. It panics unless rows is
// a matrix of len(dst) columns.
func AddRows(dst []float64, rows *Tensor) {
	if rows.Dims() != 2 || rows.shape[1] != len(dst) {
		panic(fmt.Sprintf("tensor: AddRows of a %v matrix into %d values", rows.shape, len(dst)))
	}
	d := len(dst)
	for q0 := 0; q0 < rows.shape[0]; q0 += blockK {
		addScaledRows(dst, rows.data[q0*d:], unitCoefs[:min(blockK, rows.shape[0]-q0)])
	}
}

// AddRowsAt adds the rows idx picks out of rows, a row-major matrix of
// len(dst) columns, to dst in the order idx lists them: dst[j] receives
// rows[idx[0]·d + j], then rows[idx[1]·d + j], … one rounded addition at a
// time, which is how a group's members are summed (a centroid, a prototype,
// a point's distances to a cluster). It is the row kernel's sweep with every
// coefficient 1, the same floats because 1·v is v. With write, dst is not
// read but starts at +0: the bits a cleared dst would get, +0s for no rows
// and +0 for a lone −0. The indices must ascend (repeats allowed), as the
// sweep's offsets do; it panics on one below its predecessor or past the
// last row of rows.
func AddRowsAt(dst, rows []float64, idx []int, write bool) {
	d := len(dst)
	limit := math.MaxInt
	if d > 0 {
		limit = len(rows) / d
	}
	var offs [blockK]int
	prev := 0
	for q0 := 0; q0 == 0 || q0 < len(idx); q0 += blockK {
		chunk := idx[q0:min(q0+blockK, len(idx))]
		for q, i := range chunk {
			if i < prev || i >= limit {
				panic(fmt.Sprintf("tensor: AddRowsAt index %d at position %d: indices must ascend within the %d rows of %d columns", i, q0+q, len(rows)/max(d, 1), d))
			}
			offs[q], prev = i*d, i
		}
		axpyRows(dst, rows, offs[:len(chunk)], unitCoefs[:len(chunk)], write && q0 == 0)
	}
}

// unitCoefs are AddRows' coefficients, blockK at a time.
var unitCoefs = func() (c [blockK]float64) {
	for q := range c {
		c[q] = 1
	}
	return c
}()

// addScaledRows is AddScaledRows on the checked data of rows (row length
// len(dst)), blockK rows per axpyRows call so that the offsets live on the
// stack.
func addScaledRows(dst, rows, coefs []float64) {
	var offs [blockK]int
	for q0 := 0; q0 < len(coefs); q0 += blockK {
		chunk := coefs[q0:min(q0+blockK, len(coefs))]
		for q := range chunk {
			offs[q] = (q0 + q) * len(dst)
		}
		axpyRows(dst, rows, offs[:len(chunk)], chunk, false)
	}
}

// AddRowVec adds v to every row of y in place: y[i,j] += v[j]. It panics
// unless y is a matrix of len(v) columns.
func AddRowVec(y *Tensor, v []float64) {
	checkRowVec("AddRowVec", y, v)
	biasRows(y.data, v, false)
}

// AddRowVecReLU is AddRowVec followed by ReLU, in one sweep:
// y[i,j] = relu(y[i,j] + v[j]), where relu gives +0 for every value <= 0
// (negatives, −Inf, both zeros) and passes every other value through — NaN
// of either sign included, so a poisoned pre-activation stays visible.
func AddRowVecReLU(y *Tensor, v []float64) {
	checkRowVec("AddRowVecReLU", y, v)
	biasRows(y.data, v, true)
}

func checkRowVec(op string, y *Tensor, v []float64) {
	if y.Dims() != 2 || y.shape[1] != len(v) {
		panic(fmt.Sprintf("tensor: %s of %d values onto %v", op, len(v), y.shape))
	}
}

// ReLUGradInto is ReLU's gradient from its output: dst = g where y > 0 and
// +0 elsewhere (±0, negatives, NaN). dst may alias g. It panics unless the
// three shapes match.
func ReLUGradInto(dst, g, y *Tensor) {
	if !SameShape(dst, g) || !SameShape(dst, y) {
		panic(fmt.Sprintf("tensor: ReLUGradInto %v from %v and %v", dst.shape, g.shape, y.shape))
	}
	reluMask(dst.data, g.data, y.data)
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
	out := make([]float64, t.shape[1])
	t.ColMeansInto(out)
	return out
}

// ColMeansInto writes ColMeans into out, which must hold one element per
// column: each column summed from +0 in row order, then scaled by the
// inverse of the row count (all +0 when there are no rows).
func (t *Tensor) ColMeansInto(out []float64) {
	m, n := t.shape[0], t.shape[1]
	out = out[:n]
	clear(out)
	if m == 0 {
		return
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
		L2NormalizeRowInto(dst.data[i*n:(i+1)*n], a.data[i*n:(i+1)*n], eps)
	}
	return nil
}

// L2NormalizeRowInto is one row of L2NormalizeRowsInto: it writes src
// scaled to unit Euclidean norm into dst (src itself when its norm is below
// eps) and returns that norm, Norm2(src)'s bits. dst may alias src; it
// panics unless the two are one length.
func L2NormalizeRowInto(dst, src []float64, eps float64) float64 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: L2NormalizeRowInto of %d values into %d", len(src), len(dst)))
	}
	var ss float64
	for _, v := range src {
		ss += v * v
	}
	norm := math.Sqrt(ss)
	if norm < eps {
		copy(dst, src)
		return norm
	}
	inv := 1 / norm
	for j, v := range src {
		dst[j] = v * inv
	}
	return norm
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

// SqDistTile writes o[r·4 + j] = SqDist(a[r], b[j]) for r, j < 4, bit for
// bit: four rows against four rows, each of the sixteen sums Σ (a−b)² over
// ascending i in an accumulator of its own. Sixteen independent chains are
// in flight where SqDistRows' scalar passes have four, and on AVX2 each step
// of i is four vector subtract-multiply-adds. A row may appear more than once on either
// side, which is how callers pad a ragged edge. It panics unless all eight
// rows have one length.
func SqDistTile(o *[16]float64, a, b *[4][]float64) {
	d := len(a[0])
	for r := range 4 {
		if len(a[r]) != d || len(b[r]) != d {
			panic(fmt.Sprintf("tensor: SqDistTile rows of lengths %d, %d, %d, %d against %d, %d, %d, %d",
				len(a[0]), len(a[1]), len(a[2]), len(a[3]), len(b[0]), len(b[1]), len(b[2]), len(b[3])))
		}
	}
	sqDistTile(o, a, b)
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

// ExpShiftInto writes dst[i] = math.Exp(src[i] − shift), bit for bit
// whatever the inputs: the shifted exponential of a softmax row.
// dst and src must be one length, and are the same slice or do not overlap.
// On amd64 CPUs where math.Exp runs its FMA branch, four elements go
// through that branch's instructions at a time (rowprim_amd64.s).
func ExpShiftInto(dst, src []float64, shift float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ExpShiftInto into %d elements from %d", len(dst), len(src)))
	}
	expShift(dst, src, shift)
}

// SGDStep applies one stochastic-gradient step to the values v from their
// gradients g, in place. With a velocity vel it is the momentum form, each
// element in this order:
//
//	t = weightDecay·v; grad = g + t; vel = momentum·vel + grad; v = v − lr·vel
//
// and with vel nil the plain form, t = weightDecay·v; grad = g + t;
// v = v − lr·grad (momentum is not read). freshVel makes the momentum form
// the first step of a velocity: vel is written but not read, every element
// taken as +0 — the bits a cleared vel gives, without the clear. Every
// operation is rounded to float64 on its own — never a fused multiply-add —
// so each element gets exactly the roundings of that scalar loop, whichever
// implementation runs; on amd64 with AVX2 four elements go through them at
// a time (rowprim_amd64.s). It panics unless g, and vel when non-nil, are
// as long as v.
func SGDStep(v, g, vel []float64, lr, momentum, weightDecay float64, freshVel bool) {
	if len(g) != len(v) || (vel != nil && len(vel) != len(v)) {
		panic(fmt.Sprintf("tensor: SGDStep of %d values with %d gradients and %d velocities", len(v), len(g), len(vel)))
	}
	sgdStep(v, g, vel, lr, momentum, weightDecay, freshVel)
}

// SumSquares returns Σ x[i]², each square rounded before it is added, in
// sixteen independent chains rather than left to right: the element at i
// joins chain i mod 16 (the last one to three elements a chain of their
// own), and the chains are added pairwise at the end. Both implementations
// sum in exactly this order and return the same bits; a serial sum of the
// same squares can differ from it in the last bits, by no more than the
// bound of any summation order of non-negative terms.
func SumSquares(x []float64) float64 { return sumSquares(x) }

// ScaleSlice multiplies every element of x by c, in place.
func ScaleSlice(x []float64, c float64) { scale(x, c) }

// LogSumExp returns log(Σ exp(v_i)), stabilized: the terms exp(v_i − max)
// are summed in order of i.
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
	var terms [16]float64
	for len(v) > 0 {
		chunk := terms[:min(len(v), len(terms))]
		expShift(chunk, v, m)
		for _, e := range chunk {
			s += e
		}
		v = v[len(chunk):]
	}
	return shiftedLog(m, s)
}

// shiftedLog is a log-sum-exp's last step, m + log(s). It is one compiled
// body for LogSumExp and LogSumExpRows alike: where m and log(s) are both
// NaN, which payload the sum keeps is the operand order the compiler picked
// for it, and an inlined copy could pick another.
//
//go:noinline
func shiftedLog(m, s float64) float64 { return m + math.Log(s) }

// LogSumExpRows writes dst[r] = LogSumExp(row r) for the len(dst) rows of
// the row-major matrix x, bit for bit, NaN payloads included: each row's
// max and its sum of exp(x − max) are chains of their own over ascending
// elements, as LogSumExp runs them. Four rows go through each pass, so four
// comparisons and four additions are in flight where one LogSumExp waits
// out the latency of each. It panics unless len(x) is a multiple of
// len(dst).
func LogSumExpRows(dst, x []float64) {
	m := len(dst)
	if m == 0 && len(x) == 0 {
		return
	}
	if m == 0 || len(x)%m != 0 {
		panic(fmt.Sprintf("tensor: LogSumExpRows of %d values in %d rows", len(x), m))
	}
	n := len(x) / m
	r := 0
	for ; n > 0 && r+4 <= m; r += 4 {
		v0, v1, v2, v3 := x[r*n:][:n], x[(r+1)*n:][:n], x[(r+2)*n:][:n], x[(r+3)*n:][:n]
		m0, m1, m2, m3 := v0[0], v1[0], v2[0], v3[0]
		for j := 1; j < n; j++ {
			if v0[j] > m0 {
				m0 = v0[j]
			}
			if v1[j] > m1 {
				m1 = v1[j]
			}
			if v2[j] > m2 {
				m2 = v2[j]
			}
			if v3[j] > m3 {
				m3 = v3[j]
			}
		}
		var s0, s1, s2, s3 float64
		var terms [4][64]float64
		for j := 0; j < n; j += len(terms[0]) {
			c := min(n-j, len(terms[0]))
			t0, t1, t2, t3 := terms[0][:c], terms[1][:c], terms[2][:c], terms[3][:c]
			expShift(t0, v0[j:], m0)
			expShift(t1, v1[j:], m1)
			expShift(t2, v2[j:], m2)
			expShift(t3, v3[j:], m3)
			for e := range t0 {
				s0 += t0[e]
				s1 += t1[e]
				s2 += t2[e]
				s3 += t3[e]
			}
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = shiftedLog(m0, s0), shiftedLog(m1, s1), shiftedLog(m2, s2), shiftedLog(m3, s3)
	}
	for ; r < m; r++ {
		dst[r] = LogSumExp(x[r*n:][:n])
	}
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
