package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// forceWorkers pins the shared pool to n workers for the duration of the
// test, restoring the default afterwards.
func forceWorkers(t testing.TB, n int) {
	t.Helper()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(0) })
}

// randMat draws an m×n matrix whose entries mix ordinary values, exact
// zeros (exercising the skip-zero fast path) and the occasional special
// value, so bitwise comparisons cover the edge cases that tolerance-based
// comparisons would hide.
func randMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	d := t.Data()
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Inf(1)
		case 2:
			d[i] = math.SmallestNonzeroFloat64
		default:
			d[i] = rng.NormFloat64()
		}
	}
	return t
}

func bitwiseEqual(a, b *Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// runForced runs the blocked range kernel for op over the pool with the
// given row count, forcing parallel decomposition regardless of problem
// size (minChunk 1 allows maximal splitting).
func runForced(op func(out, a, b *Tensor, lo, hi int), out, a, b *Tensor, rows int) {
	parallelRows(rows, 1, func(lo, hi int) { op(out, a, b, lo, hi) })
}

// TestParallelKernelsMatchSerialBitwise is the core determinism property:
// for random shapes (including ragged ones nowhere near multiples of the
// 64-wide tiles) the blocked parallel kernels must reproduce the serial
// references exactly — 0 ULP, special values included.
func TestParallelKernelsMatchSerialBitwise(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(11))
	prop := func(mSeed, kSeed, nSeed uint16) bool {
		m := 1 + int(mSeed)%97
		k := 1 + int(kSeed)%97
		n := 1 + int(nSeed)%97

		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		want, got := New(m, n), New(m, n)
		MatMulSerialInto(want, a, b)
		runForced(matMulRange, got, a, b, m)
		if !bitwiseEqual(want, got) {
			t.Logf("MatMul mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}

		at := randMat(rng, k, m) // (k×m) for aᵀ·b
		MatMulTransASerialInto(want, at, b)
		runForced(matMulTransARange, got, at, b, m)
		if !bitwiseEqual(want, got) {
			t.Logf("MatMulTransA mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}

		bt := randMat(rng, n, k) // (n×k) for a·bᵀ
		MatMulTransBSerialInto(want, a, bt)
		runForced(matMulTransBRange, got, a, bt, m)
		if !bitwiseEqual(want, got) {
			t.Logf("MatMulTransB mismatch at m=%d k=%d n=%d", m, k, n)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelKernelsRaggedTileEdges pins down shapes that straddle the
// blockK block boundaries (one less, exact, one more), where an
// off-by-one in the range math would corrupt edge rows or columns.
func TestParallelKernelsRaggedTileEdges(t *testing.T) {
	forceWorkers(t, 3)
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 7, blockK - 1, blockK, blockK + 1, 2*blockK + 17}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range []int{1, blockK - 1, blockK + 1} {
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				want, got := New(m, n), New(m, n)
				MatMulSerialInto(want, a, b)
				runForced(matMulRange, got, a, b, m)
				if !bitwiseEqual(want, got) {
					t.Fatalf("MatMul mismatch at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

// TestPublicKernelsMatchSerial drives the public entry points (which pick
// serial or parallel paths themselves) across the size threshold.
func TestPublicKernelsMatchSerial(t *testing.T) {
	forceWorkers(t, 4)
	rng := rand.New(rand.NewSource(13))
	for _, size := range []struct{ m, k, n int }{
		{4, 5, 6},       // tiny: serial fast path
		{64, 64, 64},    // exactly at the serial threshold
		{80, 70, 90},    // above threshold, ragged
		{130, 129, 131}, // above threshold, straddling tiles
	} {
		a := randMat(rng, size.m, size.k)
		b := randMat(rng, size.k, size.n)
		want, got := New(size.m, size.n), New(size.m, size.n)
		MatMulSerialInto(want, a, b)
		MatMulInto(got, a, b)
		if !bitwiseEqual(want, got) {
			t.Fatalf("MatMulInto mismatch at %+v", size)
		}

		at := randMat(rng, size.k, size.m)
		MatMulTransASerialInto(want, at, b)
		MatMulTransAInto(got, at, b)
		if !bitwiseEqual(want, got) {
			t.Fatalf("MatMulTransAInto mismatch at %+v", size)
		}

		bt := randMat(rng, size.n, size.k)
		MatMulTransBSerialInto(want, a, bt)
		MatMulTransBInto(got, a, bt)
		if !bitwiseEqual(want, got) {
			t.Fatalf("MatMulTransBInto mismatch at %+v", size)
		}
	}
}

// TestSharedPoolConcurrentUse hammers the shared pool from many caller
// goroutines at once — the shape of load internal/fl generates when several
// clients train concurrently — and checks every result bitwise. Run under
// -race this also proves the pool itself is data-race free.
func TestSharedPoolConcurrentUse(t *testing.T) {
	forceWorkers(t, 3)
	rng := rand.New(rand.NewSource(14))
	const m, k, n = 96, 160, 128
	if serialSized(m, k, n) {
		t.Fatalf("%d×%d×%d is no longer above serialFLOPs: this test would not exercise the pool", m, k, n)
	}
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	want := New(m, n)
	MatMulSerialInto(want, a, b)

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := New(m, n)
			for iter := 0; iter < 20; iter++ {
				MatMulInto(out, a, b)
				if !bitwiseEqual(want, out) {
					errs[c] = fmt.Errorf("caller %d iter %d: result mismatch", c, iter)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetWorkersWhileBusy resizes the pool concurrently with kernel use;
// SetWorkers must block out in-flight kernels rather than corrupt them.
func TestSetWorkersWhileBusy(t *testing.T) {
	forceWorkers(t, 2)
	rng := rand.New(rand.NewSource(15))
	const m, k, n = 96, 160, 128 // above serialFLOPs, like TestSharedPoolConcurrentUse
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	want := New(m, n)
	MatMulSerialInto(want, a, b)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, w := range []int{1, 4, 2, 3, 1, 4} {
			SetWorkers(w)
		}
	}()
	out := New(m, n)
	for iter := 0; iter < 50; iter++ {
		MatMulInto(out, a, b)
		if !bitwiseEqual(want, out) {
			t.Fatalf("iter %d: result mismatch during resize", iter)
		}
	}
	<-done
}

func TestWorkersConfiguration(t *testing.T) {
	forceWorkers(t, 5)
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
	SetWorkers(0) // reset to default
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after reset, want ≥1", got)
	}
}

// --- Benchmarks -------------------------------------------------------------

func benchMatMulSize(b *testing.B, size int, serial bool) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, 1, size, size)
	y := RandN(rng, 1, size, size)
	out := New(size, size)
	b.ReportAllocs()
	b.SetBytes(int64(8 * size * size * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if serial {
			MatMulSerialInto(out, x, y)
		} else {
			MatMulInto(out, x, y)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%dx%d", size, size, size), func(b *testing.B) {
			benchMatMulSize(b, size, false)
		})
	}
}

func BenchmarkMatMulSerial(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%dx%d", size, size, size), func(b *testing.B) {
			benchMatMulSize(b, size, true)
		})
	}
}

func BenchmarkMatMulTransA256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandN(rng, 1, 256, 256)
	y := RandN(rng, 1, 256, 256)
	out := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(out, x, y)
	}
}

func BenchmarkMatMulTransB256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandN(rng, 1, 256, 256)
	y := RandN(rng, 1, 256, 256)
	out := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(out, x, y)
	}
}

// TestForkedKernelCallsAllocateNothing: a product split across the pool
// hands the workers a reused job — the range kernel and its operands — and
// each chunk's bounds by value, so once a job exists a forked call builds no
// closure and no WaitGroup: it allocates nothing.
func TestForkedKernelCallsAllocateNothing(t *testing.T) {
	forceWorkers(t, 2)
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 64, 160, 160
	a, at, b, bt := randMat(rng, m, k), randMat(rng, k, m), randMat(rng, k, n), randMat(rng, n, k)
	out := New(m, n)
	if serialSized(m, k, n) {
		t.Fatalf("a %dx%dx%d product runs serially: the test needs one the pool splits", m, k, n)
	}
	for name, call := range map[string]func(){
		"MatMulInto":       func() { MatMulInto(out, a, b) },
		"MatMulTransAInto": func() { MatMulTransAInto(out, at, b) },
		"MatMulTransBInto": func() { MatMulTransBInto(out, a, bt) },
	} {
		call() // the first forked call makes the job the later ones reuse
		if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
			t.Errorf("a forked %s call allocates %v objects, want 0", name, allocs)
		}
	}
}
