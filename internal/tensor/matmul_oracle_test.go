package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The three naive loop nests below are the oracle: they define, element by
// element, what every matmul kernel must return. Each output element is one
// accumulator summed over ascending p; a·b and aᵀ·b skip terms whose a
// coefficient is exactly zero (so 0·Inf is never formed), a·bᵀ skips
// nothing. They were the production serial kernels until the fused row
// kernel and the a·bᵀ tile replaced them; nothing outside tests calls them.

func naiveMatMul(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out.Zero()
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func naiveMatMulTransA(out, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out.Zero()
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

func naiveMatMulTransB(out, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// specials are the values bitwise comparison exists for: both zeros (the
// skip test must treat −0 as zero), both infinities and NaN (0·Inf and
// Inf−Inf must appear exactly where the oracle forms them), denormals.
var specials = [...]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
}

// specialMat draws an m×n matrix: each entry is an exact zero with
// probability zeroPct/100, a member of specials with probability 1/8,
// a normal value otherwise; and about one row in five is all zero.
func specialMat(rng *rand.Rand, m, n, zeroPct int) *Tensor {
	t := New(m, n)
	for i := 0; i < m; i++ {
		if rng.Intn(5) == 0 {
			continue
		}
		row := t.data[i*n : (i+1)*n]
		for j := range row {
			switch {
			case rng.Intn(100) < zeroPct:
			case rng.Intn(8) == 0:
				row[j] = specials[rng.Intn(len(specials))]
			default:
				row[j] = rng.NormFloat64()
			}
		}
	}
	return t
}

// sameBits is bitwise equality, except that any NaN equals any NaN: which
// of two NaN payloads an addition keeps depends on the operand order the
// compiler picks for the instruction, not on the order of summation.
func sameBits(want, got *Tensor) error { return sameRow(want.data, got.data) }

// sameRow is sameBits for plain slices.
func sameRow(want, got []float64) error {
	for i, w := range want {
		g := got[i]
		if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			return fmt.Errorf("element %d: want %v (%#x), got %v (%#x)", i, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
	return nil
}

// checkAgainstNaive compares all three products at one shape with the
// oracle: through the serial entry, through forced one-row-granular splits
// of the range kernel, and through the public entry, which picks its own
// path. Operands are drawn from rng with the given share of exact zeros.
func checkAgainstNaive(rng *rand.Rand, m, k, n, zeroPct int) error {
	a := specialMat(rng, m, k, zeroPct)
	at := specialMat(rng, k, m, zeroPct)
	b := specialMat(rng, k, n, zeroPct)
	bt := specialMat(rng, n, k, zeroPct)
	if err := checkOperands(a, at, b, bt); err != nil {
		return fmt.Errorf("zeros=%d%%: %w", zeroPct, err)
	}
	return nil
}

// checkOperands is the comparison of checkAgainstNaive on given operands:
// a·b, atᵀ·b and a·btᵀ with a m×k, at k×m, b k×n and bt n×k.
func checkOperands(a, at, b, bt *Tensor) error {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	want, got := New(m, n), New(m, n)
	for _, prod := range []struct {
		name          string
		x, y          *Tensor
		naive, serial func(out, a, b *Tensor)
		rng           func(out, a, b *Tensor, lo, hi int)
		public        func(out, a, b *Tensor)
	}{
		{"a·b", a, b, naiveMatMul, MatMulSerialInto, matMulRange, MatMulInto},
		{"aᵀ·b", at, b, naiveMatMulTransA, MatMulTransASerialInto, matMulTransARange, MatMulTransAInto},
		{"a·bᵀ", a, bt, naiveMatMulTransB, MatMulTransBSerialInto, matMulTransBRange, MatMulTransBInto},
	} {
		prod.naive(want, prod.x, prod.y)
		for _, path := range []struct {
			name string
			run  func()
		}{
			{"serial", func() { prod.serial(got, prod.x, prod.y) }},
			{"split", func() { runForced(prod.rng, got, prod.x, prod.y, m) }},
			{"public", func() { prod.public(got, prod.x, prod.y) }},
		} {
			for i := range got.data {
				got.data[i] = 12345 // a kernel must overwrite, not accumulate into, out
			}
			path.run()
			if err := sameBits(want, got); err != nil {
				return fmt.Errorf("%s %s at m=%d k=%d n=%d: %w", prod.name, path.name, m, k, n, err)
			}
		}
	}
	return nil
}

// TestKernelsMatchNaive pins the fused row kernel and the a·bᵀ tile, under
// every implementation of the row primitives (eachImpl), to the naive loops
// at every pool size, on the shapes that exercise their edges:
// dimensions that are not multiples of the 4-row fusion or the 4×4 tile,
// m = 1, n < 4, k past one and two coefficient blocks, and the federation's
// own shapes dense and ReLU-sparse.
func TestKernelsMatchNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 5, 3}, {2, 3, 1}, {3, 7, 2}, {5, 9, 5}, {7, 13, 11},
		{1, 2*blockK + 3, 7}, {3, blockK, 4}, {6, blockK + 1, 9}, {9, 3*blockK - 1, 3},
		{17, 31, 33}, {33, 70, 37}, {48, 200, 60},
		{48, 300, 120}, // above serialFLOPs: the public entry goes through the pool
		{32, 32, 96}, {32, 96, 48}, {32, 48, 24},
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			forceWorkers(t, workers)
			eachImpl(t, func(impl string) {
				rng := rand.New(rand.NewSource(int64(20 + workers)))
				for _, s := range shapes {
					for _, zeroPct := range []int{0, 50, 95} {
						if err := checkAgainstNaive(rng, s.m, s.k, s.n, zeroPct); err != nil {
							t.Fatalf("%s: %v", impl, err)
						}
					}
				}
				prop := func(mSeed, kSeed, nSeed uint16, zeroSeed uint8) bool {
					err := checkAgainstNaive(rng, 1+int(mSeed)%41, 1+int(kSeed)%150, 1+int(nSeed)%41, int(zeroSeed)%101)
					if err != nil {
						t.Log(err)
					}
					return err == nil
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
					t.Fatalf("%s: %v", impl, err)
				}
			})
		})
	}
}

// TestCompactionEdgesMatchNaive drives the row kernel's coefficient
// compaction where random operands rarely go, with the same coefficients
// on the a·b path and (transposed) on the strided aᵀ·b path: rows without a
// single zero, so that a block keeps all blockK coefficients and nz reaches
// the buffer's length, at k on both sides of one block and into a third;
// all-zero rows, which keep none; and rows that hold −0, NaN and ±Inf as
// coefficients next to kept and skipped neighbours — −0 must be skipped
// (0·Inf must not be formed with the Infs in b), NaN and ±Inf kept. m = 9,
// 10 and 11 leave one to three rows after aᵀ·b's four-row gathers, and
// k = blockK+1 and blockK+2 a last block of one or two coefficients.
func TestCompactionEdgesMatchNaive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	coefSpecials := []float64{negZero, math.NaN(), math.Inf(1), math.Inf(-1), 0}
	forceWorkers(t, 2)
	for _, k := range []int{blockK - 1, blockK, blockK + 1, blockK + 2, 2*blockK + 3} {
		for _, mn := range [...]struct{ m, n int }{{9, 1}, {9, 5}, {9, 8}, {10, 1}, {10, 5}, {10, 8}, {11, 1}, {11, 5}, {11, 8}} {
			m, n := mn.m, mn.n
			rng := rand.New(rand.NewSource(int64(29 + k)))
			a := New(m, k)
			for i, v := range RandN(rng, 1, m, k).data {
				a.data[i] = v + math.Copysign(0.5, v) // never zero
			}
			clear(a.data[1*k : 2*k]) // a row that keeps nothing
			for p := 0; p < k; p++ {
				a.data[2*k+p] = negZero // nor does this one
				// Rows 3–6: one special coefficient per four, sliding so that
				// each kind lands on a block's first and last slot in some row.
				a.data[(3+p%4)*k+p] = coefSpecials[(p/4)%len(coefSpecials)]
			}
			at := New(k, m)
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					at.data[p*m+i] = a.data[i*k+p]
				}
			}
			b, bt := RandN(rng, 1, k, n), RandN(rng, 1, n, k)
			for p := 0; p < k; p += 3 {
				b.data[p*n+p%n] = specials[p%len(specials)]
			}
			eachImpl(t, func(impl string) {
				if err := checkOperands(a, at, b, bt); err != nil {
					t.Fatalf("%s: %v", impl, err)
				}
			})
		}
	}
}

// TestKernelsMatchNaiveWide runs the one shape family the small cases
// cannot reach: the wide model's 32×1024×256 layer, whose inner dimension
// spans sixteen coefficient blocks and whose products go through the pool.
func TestKernelsMatchNaiveWide(t *testing.T) {
	forceWorkers(t, 2)
	eachImpl(t, func(impl string) {
		rng := rand.New(rand.NewSource(23))
		for _, zeroPct := range []int{0, 50} {
			if err := checkAgainstNaive(rng, 32, 1024, 256, zeroPct); err != nil {
				t.Fatalf("%s: %v", impl, err)
			}
		}
	})
}

// FuzzMatMulMatchesNaive lets the fuzzer pick shape, sparsity, operand seed
// and pool size; the seed corpus under testdata/fuzz is the regression set.
func FuzzMatMulMatchesNaive(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(1), uint8(1))
	f.Add(uint8(3), uint8(200), uint8(5), uint8(50), int64(2), uint8(2))
	f.Add(uint8(33), uint8(129), uint8(38), uint8(90), int64(3), uint8(4))
	f.Add(uint8(62), uint8(255), uint8(63), uint8(30), int64(4), uint8(1)) // about the largest product the fuzzer can reach
	// k = blockK−1, blockK, blockK+1 and 2·blockK+3 with no drawn zeros: rows
	// whose blocks keep every coefficient.
	f.Add(uint8(8), uint8(blockK-2), uint8(6), uint8(0), int64(5), uint8(0))
	f.Add(uint8(8), uint8(blockK-1), uint8(6), uint8(0), int64(6), uint8(1))
	f.Add(uint8(8), uint8(blockK), uint8(6), uint8(0), int64(7), uint8(2))
	f.Add(uint8(8), uint8(2*blockK+2), uint8(6), uint8(0), int64(8), uint8(3))
	f.Fuzz(func(t *testing.T, m, k, n, zeroPct uint8, seed int64, workers uint8) {
		forceWorkers(t, 1+int(workers)%4)
		eachImpl(t, func(impl string) {
			rng := rand.New(rand.NewSource(seed))
			if err := checkAgainstNaive(rng, 1+int(m)%64, 1+int(k), 1+int(n)%64, int(zeroPct)%101); err != nil {
				t.Fatalf("%s: %v", impl, err)
			}
		})
	})
}

// --- Benchmarks at the federation's shapes ----------------------------------

// reluSparse zeroes the negative half of t, the sparsity a ReLU hidden
// layer hands to the next layer's products.
func reluSparse(t *Tensor) *Tensor {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
	return t
}

// BenchmarkFederationShapes times the three products of one dense layer's
// forward and backward pass (y = x·w, dw = xᵀ·dy, dx = dy·wᵀ) at the
// (batch × in × out) shapes the benchmark workloads train: the small
// model's input and hidden layers and the wide model's first layer.
func BenchmarkFederationShapes(b *testing.B) {
	for _, s := range []struct {
		name       string
		m, k, n    int
		sparseActs bool
	}{
		{"32x32x96-dense", 32, 32, 96, false},
		{"32x96x48-relu", 32, 96, 48, true},
		{"32x1024x256-dense", 32, 1024, 256, false},
	} {
		rng := rand.New(rand.NewSource(4))
		// A training step never multiplies the same activations twice: with
		// one repeated x the branch predictor learns where its zeros are,
		// and a zero test that is a coin flip in training times as free.
		xs := make([]*Tensor, 16)
		for i := range xs {
			xs[i] = RandN(rng, 1, s.m, s.k)
			if s.sparseActs {
				reluSparse(xs[i])
			}
		}
		w := RandN(rng, 1, s.k, s.n)
		dy := RandN(rng, 1, s.m, s.n)
		y, dw, dx := New(s.m, s.n), New(s.k, s.n), New(s.m, s.k)
		for _, prod := range []struct {
			name string
			run  func(x *Tensor)
		}{
			{"matmul", func(x *Tensor) { MatMulInto(y, x, w) }},
			{"transa", func(x *Tensor) { MatMulTransAInto(dw, x, dy) }},
			{"transb", func(*Tensor) { MatMulTransBInto(dx, dy, w) }},
			{"naive-matmul", func(x *Tensor) { naiveMatMul(y, x, w) }},
			{"naive-transa", func(x *Tensor) { naiveMatMulTransA(dw, x, dy) }},
			{"naive-transb", func(*Tensor) { naiveMatMulTransB(dx, dy, w) }},
		} {
			b.Run(s.name+"/"+prod.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					prod.run(xs[i%len(xs)])
				}
			})
		}
	}
}
