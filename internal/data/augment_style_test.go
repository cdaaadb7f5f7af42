package data

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

func TestStyleAugmenterConfigured(t *testing.T) {
	g, err := NewGenerator(CIFAR10Spec(), 3)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	a := g.StyleAugmenter()
	if a.StyleDirs == nil {
		t.Fatal("StyleAugmenter must carry style directions")
	}
	if a.StyleDirs.Rows() != CIFAR10Spec().StyleDim || a.StyleDirs.Cols() != CIFAR10Spec().Dim {
		t.Fatalf("style dirs shape = %v", a.StyleDirs.Shape())
	}
	if a.StyleStd <= 0 || a.StyleStd >= CIFAR10Spec().StyleStd {
		t.Fatalf("style jitter std = %v, want a positive fraction of %v", a.StyleStd, CIFAR10Spec().StyleStd)
	}
}

func TestStyleAugmentationPerturbsStyleSubspace(t *testing.T) {
	g, err := NewGenerator(CIFAR10Spec(), 4)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	a := Augmenter{StyleDirs: g.StyleAugmenter().StyleDirs, StyleStd: 1} // style-only augmenter
	x := make([]float64, CIFAR10Spec().Dim)
	v := viewOf(a, rng, x) // view of the zero vector = pure style perturbation
	if tensor.Norm2(v) == 0 {
		t.Fatal("style augmentation should perturb the sample")
	}
	// The perturbation must lie in the row span of StyleDirs: residual
	// after projecting onto the style rows should be (near) zero because
	// the perturbation is an exact linear combination of them.
	// Verify by reconstructing: delta = Σ c_s dirs_s has the property that
	// solving least squares on the dirs reproduces it. A cheap check:
	// perturbing twice gives different vectors in the same subspace, so
	// their difference is too; and any vector orthogonal to all style rows
	// keeps a zero dot product.
	ortho := make([]float64, len(x))
	ortho[0] = 1
	// Gram–Schmidt ortho against style rows.
	for s := 0; s < a.StyleDirs.Rows(); s++ {
		dir := a.StyleDirs.Row(s)
		proj := tensor.Dot(ortho, dir) / tensor.Dot(dir, dir)
		for j := range ortho {
			ortho[j] -= proj * dir[j]
		}
	}
	if n := tensor.Norm2(ortho); n > 1e-9 {
		got := math.Abs(tensor.Dot(v, ortho)) / (tensor.Norm2(v) * n)
		if got > 0.35 {
			t.Fatalf("style perturbation leaks outside the style span: cos = %v", got)
		}
	}
}

func TestStyleAugmenterDimMismatchIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Augmenter{StyleDirs: tensor.New(2, 8), StyleStd: 1}
	x := []float64{1, 2, 3} // dim 3 ≠ 8: style term must be skipped, not panic
	v := viewOf(a, rng, x)
	for i := range x {
		if v[i] != x[i] {
			t.Fatal("mismatched style dirs should leave the sample unchanged")
		}
	}
}

func TestWarpBoundsObservations(t *testing.T) {
	spec := CIFAR10Spec()
	if spec.Warp <= 0 {
		t.Skip("spec has no warp")
	}
	g, err := NewGenerator(spec, 7)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	for c := 0; c < spec.NumClasses; c++ {
		x := g.Sample(rng, c)
		for _, v := range x {
			if math.Abs(v) > spec.Warp {
				t.Fatalf("warped observation %v exceeds bound %v", v, spec.Warp)
			}
		}
	}
}

func TestWarpZeroIsLinear(t *testing.T) {
	spec := CIFAR10Spec()
	spec.Warp = 0
	g, err := NewGenerator(spec, 9)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	x := g.Sample(rng, 0)
	exceeded := false
	for _, v := range x {
		if math.Abs(v) > 1.0 { // unwarped samples roam beyond the warp bound
			exceeded = true
			break
		}
	}
	if !exceeded {
		t.Fatal("unwarped samples should exceed the tanh bound somewhere")
	}
}

// scalarView is viewInto as it was before the style sweep went through
// tensor.AddScaledRows: one delta drawn and one sweep over out per style
// direction, in order. viewInto must reproduce it bit for bit, draws
// included.
func scalarView(a Augmenter, rng *rand.Rand, x, out []float64) {
	scale := 1.0
	if a.ScaleJitter > 0 {
		scale = 1 + (rng.Float64()*2-1)*a.ScaleJitter
	}
	for i, v := range x {
		if a.DropProb > 0 && rng.Float64() < a.DropProb {
			out[i] = 0
			continue
		}
		nv := v * scale
		if a.NoiseStd > 0 {
			nv += rng.NormFloat64() * a.NoiseStd
		}
		out[i] = nv
	}
	if a.StyleDirs != nil && a.StyleStd > 0 && a.StyleDirs.Cols() == len(x) {
		for s := 0; s < a.StyleDirs.Rows(); s++ {
			delta := rng.NormFloat64() * a.StyleStd
			dir := a.StyleDirs.Row(s)
			for i := range out {
				out[i] += delta * dir[i]
			}
		}
	}
}

// TestViewMatchesScalarStyleSweep holds viewInto to scalarView at style
// direction counts on both sides of the four-row fusion and of styleChunk,
// and at dimensions with and without a vector tail.
func TestViewMatchesScalarStyleSweep(t *testing.T) {
	for _, dim := range []int{1, 7, 16, 64} {
		for _, styles := range []int{0, 1, 3, 5, 24, 28, styleChunk, styleChunk + 1, 2*styleChunk + 3} {
			rng := rand.New(rand.NewSource(int64(dim*100 + styles)))
			a := DefaultAugmenter()
			a.StyleDirs, a.StyleStd = tensor.RandN(rng, 1, styles, dim), 0.7
			x := tensor.RandN(rng, 1, 1, dim).Data()
			got, want := make([]float64, dim), make([]float64, dim)
			gotRNG, wantRNG := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for rep := 0; rep < 3; rep++ {
				a.viewInto(gotRNG, x, got)
				scalarView(a, wantRNG, x, want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("dim %d, %d styles, view %d: element %d is %v, scalar sweep %v", dim, styles, rep, i, got[i], want[i])
					}
				}
			}
			if gotRNG.Int63() != wantRNG.Int63() {
				t.Fatalf("dim %d, %d styles: viewInto drew a different number of values", dim, styles)
			}
		}
	}
}
