package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func dirty(shape ...int) *Tensor {
	t := New(shape...)
	for i, d := 0, t.Data(); i < len(d); i++ {
		d[i] = math.NaN() // any surviving element is caught by bit compare
	}
	return t
}

func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: length %d vs %d", name, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, g[i], w[i])
		}
	}
}

// TestIntoOpsMatchAllocatingOps pins the arena precondition: every *Into
// kernel overwrites every destination element (dirty buffers are fine) and
// is bit-identical to its allocating counterpart.
func TestIntoOpsMatchAllocatingOps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := RandN(rng, 1, 4, 5)
	b := RandN(rng, 2, 4, 5)

	check := func(name string, alloc func() (*Tensor, error), into func(dst *Tensor) error) {
		t.Helper()
		want, err := alloc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := dirty(want.Shape()...)
		if err := into(dst); err != nil {
			t.Fatalf("%sInto: %v", name, err)
		}
		bitsEqual(t, name, dst, want)
	}

	check("Add", func() (*Tensor, error) { return Add(a, b) },
		func(dst *Tensor) error { return AddInto(dst, a, b) })
	check("Sub", func() (*Tensor, error) { return Sub(a, b) },
		func(dst *Tensor) error { return SubInto(dst, a, b) })
	check("Scale", func() (*Tensor, error) { return Scale(a, -1.75), nil },
		func(dst *Tensor) error { return ScaleInto(dst, a, -1.75) })
	sq := func(v float64) float64 { return v * v }
	check("Apply", func() (*Tensor, error) {
		out := a.Clone()
		for i, v := range out.Data() {
			out.Data()[i] = sq(v)
		}
		return out, nil
	}, func(dst *Tensor) error { return ApplyInto(dst, a, sq) })
	check("L2NormalizeRows", func() (*Tensor, error) { return L2NormalizeRows(a, 1e-8), nil },
		func(dst *Tensor) error { return L2NormalizeRowsInto(dst, a, 1e-8) })
}

// TestIntoOpsAliasing pins that element-wise Into kernels accept dst
// aliasing an operand — the fused kernels rely on in-place updates.
func TestIntoOpsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := RandN(rng, 1, 3, 3)
	b := RandN(rng, 2, 3, 3)
	want, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	dst := a.Clone()
	if err := AddInto(dst, dst, b); err != nil {
		t.Fatalf("AddInto aliased: %v", err)
	}
	bitsEqual(t, "Add aliased", dst, want)

	want = Scale(b, 0.5)
	dst = b.Clone()
	if err := ScaleInto(dst, dst, 0.5); err != nil {
		t.Fatalf("ScaleInto aliased: %v", err)
	}
	bitsEqual(t, "Scale aliased", dst, want)
}

func TestIntoOpsShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2)
	if err := AddInto(New(2, 3), a, b); err == nil {
		t.Fatal("AddInto shape mismatch must error")
	}
	if err := AddInto(New(3, 2), a, a); err == nil {
		t.Fatal("AddInto dst shape mismatch must error")
	}
	if err := AddRowVecInto(New(2, 3), a, []float64{1, 2}); err == nil {
		t.Fatal("AddRowVecInto wrong vector length must error")
	}
}
