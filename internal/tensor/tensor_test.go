package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEq(a, b float64) bool { return math.Abs(a-b) < tol }

// mustFromSlice builds a tensor of the given shape holding data.
func mustFromSlice(data []float64, shape ...int) *Tensor {
	t := New(shape...)
	if copy(t.Data(), data) != len(data) || len(t.Data()) != len(data) {
		panic(fmt.Sprintf("%d values for shape %v", len(data), shape))
	}
	return t
}

func TestNewShapeAndLen(t *testing.T) {
	tt := New(3, 4)
	if got := tt.Len(); got != 12 {
		t.Fatalf("Len = %d, want 12", got)
	}
	if tt.Rows() != 3 || tt.Cols() != 4 {
		t.Fatalf("Rows/Cols = %d/%d, want 3/4", tt.Rows(), tt.Cols())
	}
	sh := tt.Shape()
	sh[0] = 99 // must not alias internal shape
	if tt.Rows() != 3 {
		t.Fatal("Shape() must return a copy")
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(-1, 2)
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(0, 2, 5)
	m.Set(1, 0, -1)
	if m.At(0, 2) != 5 || m.At(1, 0) != -1 {
		t.Fatalf("Set/At roundtrip failed: %v", m.Data())
	}
	m.SetRow(1, []float64{7, 8, 9})
	r := m.Row(1)
	if r[0] != 7 || r[2] != 9 {
		t.Fatalf("SetRow/Row failed: %v", r)
	}
	// Row returns a view: mutating it mutates the tensor.
	r[1] = 42
	if m.At(1, 1) != 42 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(0, 0, 100)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share backing data")
	}
}

func TestAddSubMulScale(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := mustFromSlice([]float64{5, 6, 7, 8}, 2, 2)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add = %v", sum.Data())
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub = %v", diff.Data())
	}
	sc := Scale(a, 2)
	if sc.At(0, 1) != 4 {
		t.Fatalf("Scale = %v", sc.Data())
	}
	if _, err := Add(a, New(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("Add shape err = %v", err)
	}
}

func TestAddScaled(t *testing.T) {
	a := mustFromSlice([]float64{1, 1}, 1, 2)
	b := mustFromSlice([]float64{2, 3}, 1, 2)
	if err := AddScaled(a, b, 0.5); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	if !almostEq(a.At(0, 0), 2) || !almostEq(a.At(0, 1), 2.5) {
		t.Fatalf("AddScaled = %v", a.Data())
	}
	if err := AddScaled(a, New(2, 2), 1); !errors.Is(err, ErrShape) {
		t.Fatalf("AddScaled shape err = %v", err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := mustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(c.At(i, j), want[i][j]) {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := MatMul(a, New(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("MatMul inner-dim err = %v", err)
	}
}

// TestMatMulTransVariants checks that the fused transposed kernels agree
// with explicit Transpose + MatMul.
func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandN(rng, 1, 5, 3) // k×m for TransA
	b := RandN(rng, 1, 5, 4) // k×n
	want := func(x, y *Tensor) *Tensor {
		r, err := MatMul(x, y)
		if err != nil {
			t.Fatalf("MatMul: %v", err)
		}
		return r
	}

	at, err := Transpose(a)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	wantTA := want(at, b)
	gotTA := New(3, 4)
	MatMulTransAInto(gotTA, a, b)
	for i := range wantTA.Data() {
		if !almostEq(wantTA.Data()[i], gotTA.Data()[i]) {
			t.Fatalf("TransA mismatch at %d: %v vs %v", i, wantTA.Data()[i], gotTA.Data()[i])
		}
	}

	c := RandN(rng, 1, 6, 3) // m×k
	d := RandN(rng, 1, 4, 3) // n×k for TransB
	dt, err := Transpose(d)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	wantTB := want(c, dt)
	gotTB := New(6, 4)
	MatMulTransBInto(gotTB, c, d)
	for i := range wantTB.Data() {
		if !almostEq(wantTB.Data()[i], gotTB.Data()[i]) {
			t.Fatalf("TransB mismatch at %d", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at, err := Transpose(a)
	if err != nil {
		t.Fatalf("Transpose: %v", err)
	}
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v", at)
	}
}

func TestAddRowVec(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	out := dirty(2, 2)
	if err := AddRowVecInto(out, a, []float64{10, 20}); err != nil {
		t.Fatalf("AddRowVecInto: %v", err)
	}
	bitsEqual(t, "AddRowVecInto", out, mustFromSlice([]float64{11, 22, 13, 24}, 2, 2))
	if err := AddRowVecInto(out, a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("AddRowVecInto shape err = %v", err)
	}
}

func TestReductions(t *testing.T) {
	a := mustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.Sum() != 21 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if !almostEq(a.Mean(), 3.5) {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Max() != 6 {
		t.Fatalf("Max = %v", a.Max())
	}
	cm := a.ColMeans()
	if !almostEq(cm[0], 2.5) || !almostEq(cm[2], 4.5) {
		t.Fatalf("ColMeans = %v", cm)
	}
	if New(0, 3).Mean() != 0 {
		t.Fatal("Mean of empty tensor should be 0")
	}
}

func TestL2NormalizeRows(t *testing.T) {
	a := mustFromSlice([]float64{3, 4, 0, 0}, 2, 2)
	out := L2NormalizeRows(a, 1e-12)
	if !almostEq(out.At(0, 0), 0.6) || !almostEq(out.At(0, 1), 0.8) {
		t.Fatalf("normalized row0 = %v", out.Row(0))
	}
	// zero row preserved
	if out.At(1, 0) != 0 || out.At(1, 1) != 0 {
		t.Fatalf("zero row should be preserved: %v", out.Row(1))
	}
	if !almostEq(Norm2(out.Row(0)), 1) {
		t.Fatalf("row norm = %v, want 1", Norm2(out.Row(0)))
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 2}
	b := []float64{2, 0, 1}
	if Dot(a, b) != 4 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if Norm2(a) != 3 {
		t.Fatalf("Norm2 = %v", Norm2(a))
	}
	if SqDist(a, b) != 6 {
		t.Fatalf("SqDist = %v", SqDist(a, b))
	}
	if !almostEq(CosineSim(a, a), 1) {
		t.Fatalf("CosineSim(a,a) = %v", CosineSim(a, a))
	}
	if CosineSim(a, []float64{0, 0, 0}) != 0 {
		t.Fatal("CosineSim with zero vector must be 0")
	}
}

// TestSqDistRowsMatchesSqDist holds the four-rows-per-pass primitive to one
// SqDist per row, bit for bit, on both sides of the four-row pass and its
// remainder, at vector lengths from empty up, with special values in the
// vector and the rows (Inf−Inf, NaN, overflowing squares), and checks that
// nothing past dst's length is written.
func TestSqDistRowsMatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for rows := 0; rows <= 9; rows++ {
		for d := 0; d <= 9; d++ {
			for rep := 0; rep < 20; rep++ {
				a, b := primVals(rng, d), primVals(rng, rows*d)
				got := primVals(rng, rows+2)
				want := append([]float64(nil), got...)
				for r := 0; r < rows; r++ {
					want[r] = SqDist(a, b[r*d:(r+1)*d])
				}
				SqDistRows(got[:rows], a, b)
				if err := sameRow(want, got); err != nil {
					t.Fatalf("%d rows of %d: %v", rows, d, err)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SqDistRows took 5 values for 2 rows of 3")
		}
	}()
	SqDistRows(make([]float64, 2), make([]float64, 3), make([]float64, 5))
}

func TestLogSumExp(t *testing.T) {
	v := []float64{0, 0}
	if !almostEq(LogSumExp(v), math.Log(2)) {
		t.Fatalf("LogSumExp = %v", LogSumExp(v))
	}
	big := []float64{1000, 1000}
	if got := LogSumExp(big); !almostEq(got, 1000+math.Log(2)) {
		t.Fatalf("LogSumExp big = %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(nil) should be -Inf")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax basic")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) should be -1")
	}
	// first occurrence wins on ties
	if ArgMax([]float64{2, 2}) != 0 {
		t.Fatal("ArgMax tie should return first index")
	}
}

func TestStack(t *testing.T) {
	m, err := Stack([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	if m.Rows() != 3 || m.At(2, 0) != 5 {
		t.Fatalf("Stack = %v", m)
	}
	if _, err := Stack([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged Stack err = %v", err)
	}
	empty, err := Stack(nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("Stack(nil) = %v, %v", empty, err)
	}
}

func TestRandN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandN(rng, 2.0, 200, 10)
	mean := a.Mean()
	if math.Abs(mean) > 0.2 {
		t.Fatalf("RandN mean too far from 0: %v", mean)
	}
	var ss float64
	for _, v := range a.Data() {
		ss += v * v
	}
	std := math.Sqrt(ss / float64(a.Len()))
	if std < 1.5 || std > 2.5 {
		t.Fatalf("RandN std = %v, want ≈2", std)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandN(rng, 1, m, k)
		b := RandN(rng, 1, m, k)
		c := RandN(rng, 1, k, n)
		ab, _ := Add(a, b)
		left, _ := MatMul(ab, c)
		ac, _ := MatMul(a, c)
		bc, _ := MatMul(b, c)
		right, _ := Add(ac, bc)
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-right.Data()[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(8), 1+r.Intn(8)
		a := RandN(r, 1, m, n)
		at, _ := Transpose(a)
		att, _ := Transpose(at)
		if !SameShape(a, att) {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i] != att.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	small := mustFromSlice([]float64{1, 2}, 1, 2)
	if s := small.String(); s == "" {
		t.Fatal("String() should render")
	}
	big := New(100, 100)
	if s := big.String(); s == "" {
		t.Fatal("String() should render large tensors compactly")
	}
}
