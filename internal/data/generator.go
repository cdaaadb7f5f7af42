package data

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/tensor"
)

// Spec describes a synthetic dataset family. ARCHITECTURE.md "Synthetic
// substitutions" says how the parameters map onto the image datasets used
// in the paper.
type Spec struct {
	Name       string
	NumClasses int
	Dim        int // observation dimension (stands in for image pixels)
	LatentDim  int // class-core dimension
	StyleDim   int // nuisance-style dimension

	ClassSep float64 // distance scale between class cores
	ClassStd float64 // within-class spread in latent space
	StyleStd float64 // style-factor magnitude (what augmentation perturbs)
	NoiseStd float64 // observation noise

	// Warp, when positive, applies a saturating elementwise nonlinearity
	// x ← Warp·tanh(x/Warp) to the observation. This is what makes the
	// synthetic task non-trivially learnable: a linear model on raw
	// observations can no longer separate classes perfectly, so learned
	// encoders matter (as they do for real images).
	Warp float64
}

// CIFAR10Spec mirrors CIFAR-10: 10 classes, fully labeled.
func CIFAR10Spec() Spec {
	return Spec{
		Name: "synth-cifar10", NumClasses: 10,
		Dim: 64, LatentDim: 16, StyleDim: 24,
		ClassSep: 1.5, ClassStd: 0.85, StyleStd: 2.6, NoiseStd: 0.55,
		Warp: 1.0,
	}
}

// CIFAR100Spec mirrors CIFAR-100: 100 classes, tighter class packing (the
// harder fine-grained regime).
func CIFAR100Spec() Spec {
	return Spec{
		Name: "synth-cifar100", NumClasses: 100,
		Dim: 64, LatentDim: 24, StyleDim: 24,
		ClassSep: 1.25, ClassStd: 0.9, StyleStd: 2.6, NoiseStd: 0.55,
		Warp: 1.0,
	}
}

// STL10Spec mirrors STL-10: 10 classes, few labeled samples, and a large
// unlabeled pool (generated separately with GenerateUnlabeled).
func STL10Spec() Spec {
	return Spec{
		Name: "synth-stl10", NumClasses: 10,
		Dim: 64, LatentDim: 16, StyleDim: 28,
		ClassSep: 1.4, ClassStd: 0.9, StyleStd: 2.8, NoiseStd: 0.6,
		Warp: 1.0,
	}
}

// Generator produces samples from a Spec. The class cores and projection
// matrices are fixed at construction (per seed), so train/test/unlabeled
// splits drawn from one generator share the same underlying world.
type Generator struct {
	spec  Spec
	cores *tensor.Tensor // NumClasses × LatentDim
	projA *tensor.Tensor // LatentDim × Dim (class-core projection)
	projB *tensor.Tensor // StyleDim × Dim (style projection)
}

// NewGenerator builds a generator for spec with the world fixed by seed.
func NewGenerator(spec Spec, seed int64) (*Generator, error) {
	if spec.NumClasses < 2 {
		return nil, fmt.Errorf("data: spec needs ≥2 classes, got %d", spec.NumClasses)
	}
	if spec.Dim < 1 || spec.LatentDim < 1 || spec.StyleDim < 1 {
		return nil, fmt.Errorf("data: spec dims must be positive: %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{
		spec:  spec,
		cores: tensor.RandN(rng, spec.ClassSep, spec.NumClasses, spec.LatentDim),
		projA: tensor.RandN(rng, 1/math.Sqrt(float64(spec.LatentDim)), spec.LatentDim, spec.Dim),
		projB: tensor.RandN(rng, 1/math.Sqrt(float64(spec.StyleDim)), spec.StyleDim, spec.Dim),
	}
	return g, nil
}

// StyleAugmenter returns the default augmentation pipeline extended with
// this generator's style directions, the synthetic analogue of image
// augmentations that perturb appearance but preserve identity. The jitter
// magnitude is a fraction of the generative style scale: augmentations
// nudge appearance, they do not resample it wholesale (two views must stay
// recognizably the same sample).
func (g *Generator) StyleAugmenter() Augmenter {
	a := DefaultAugmenter()
	a.StyleDirs = g.projB.Clone()
	a.StyleStd = 0.35 * g.spec.StyleStd
	return a
}

// Sample draws one observation of the given class using rng.
func (g *Generator) Sample(rng *rand.Rand, class int) []float64 {
	sp := g.spec
	x := make([]float64, sp.Dim)
	core := g.cores.Row(class)
	// x += (core + classNoise)·A
	for l := 0; l < sp.LatentDim; l++ {
		u := core[l] + rng.NormFloat64()*sp.ClassStd
		arow := g.projA.Row(l)
		for j := 0; j < sp.Dim; j++ {
			x[j] += u * arow[j]
		}
	}
	// x += style·B
	for s := 0; s < sp.StyleDim; s++ {
		sv := rng.NormFloat64() * sp.StyleStd
		brow := g.projB.Row(s)
		for j := 0; j < sp.Dim; j++ {
			x[j] += sv * brow[j]
		}
	}
	for j := 0; j < sp.Dim; j++ {
		x[j] += rng.NormFloat64() * sp.NoiseStd
	}
	if sp.Warp > 0 {
		for j := 0; j < sp.Dim; j++ {
			x[j] = sp.Warp * math.Tanh(x[j]/sp.Warp)
		}
	}
	return x
}

// GenerateLabeled draws perClass labeled samples for every class.
func (g *Generator) GenerateLabeled(rng *rand.Rand, perClass int) *Dataset {
	sp := g.spec
	n := perClass * sp.NumClasses
	d := &Dataset{
		Name:       sp.Name,
		NumClasses: sp.NumClasses,
		Dim:        sp.Dim,
		X:          make([][]float64, 0, n),
		Y:          make([]int, 0, n),
	}
	for c := 0; c < sp.NumClasses; c++ {
		for i := 0; i < perClass; i++ {
			d.X = append(d.X, g.Sample(rng, c))
			d.Y = append(d.Y, c)
		}
	}
	return d
}

// GenerateUnlabeled draws n samples with uniformly random (hidden) classes
// and label Unlabeled. This is the STL-10 unlabeled pool: only SSL methods
// can consume it.
func (g *Generator) GenerateUnlabeled(rng *rand.Rand, n int) *Dataset {
	sp := g.spec
	d := &Dataset{
		Name:       sp.Name + "-unlabeled",
		NumClasses: sp.NumClasses,
		Dim:        sp.Dim,
		X:          make([][]float64, 0, n),
		Y:          make([]int, 0, n),
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(sp.NumClasses)
		d.X = append(d.X, g.Sample(rng, c))
		d.Y = append(d.Y, Unlabeled)
	}
	return d
}
