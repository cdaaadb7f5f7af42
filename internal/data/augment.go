package data

import (
	"math/rand"

	"calibre/internal/tensor"
)

// Augmenter produces stochastic views of a sample for self-supervised
// learning. The transforms correspond to the image augmentations used by
// SimCLR-family methods (see ARCHITECTURE.md "Synthetic substitutions"):
//
//   - additive Gaussian noise   ↔ color jitter / blur
//   - coordinate dropout        ↔ random cropping (occludes observation dims)
//   - global scale jitter       ↔ brightness / contrast changes
//   - style-subspace resampling ↔ appearance changes that leave content
//     intact (the defining property of image augmentations: they perturb
//     nuisance factors, not identity)
//
// All transforms preserve the class-core direction in expectation, so two
// views of one sample remain positives.
type Augmenter struct {
	NoiseStd    float64 // std of additive Gaussian noise
	DropProb    float64 // probability of zeroing each coordinate
	ScaleJitter float64 // views are scaled by U(1-j, 1+j)

	// StyleDirs, when non-nil, spans the nuisance-style subspace of the
	// generator (one row per style factor, in observation space); each view
	// adds a fresh Gaussian draw along these directions with std StyleStd.
	StyleDirs *tensor.Tensor
	StyleStd  float64
}

// DefaultAugmenter returns the augmentation strengths used across the
// experiments.
func DefaultAugmenter() Augmenter {
	return Augmenter{NoiseStd: 0.35, DropProb: 0.15, ScaleJitter: 0.2}
}

// viewInto writes one augmented copy of x into caller-owned storage (every
// element of out is overwritten).
func (a Augmenter) viewInto(rng *rand.Rand, x, out []float64) {
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
		// The style deltas are drawn first, in direction order, then added
		// as one multi-row sweep: out[i] receives delta_s·dir_s[i] for
		// ascending s, the chain of roundings of one sweep per direction.
		var deltas [styleChunk]float64
		dirs := a.StyleDirs
		for s0 := 0; s0 < dirs.Rows(); s0 += styleChunk {
			chunk := deltas[:min(styleChunk, dirs.Rows()-s0)]
			for s := range chunk {
				chunk[s] = rng.NormFloat64() * a.StyleStd
			}
			tensor.AddScaledRows(out, dirs, s0, chunk)
		}
	}
}

// styleChunk is how many style deltas viewInto draws and adds at a time;
// the generator's specs have 24 to 28 style directions.
const styleChunk = 32

// TwoViews returns two independently augmented view matrices for the given
// rows. Row i of both outputs derives from rows[i].
func (a Augmenter) TwoViews(rng *rand.Rand, rows [][]float64) (v1, v2 *tensor.Tensor) {
	if len(rows) == 0 {
		return tensor.New(0, 0), tensor.New(0, 0)
	}
	dim := len(rows[0])
	v1 = tensor.New(len(rows), dim)
	v2 = tensor.New(len(rows), dim)
	for i, x := range rows {
		a.viewInto(rng, x, v1.Row(i))
		a.viewInto(rng, x, v2.Row(i))
	}
	return v1, v2
}

// TwoViewsInto is TwoViews of the rows a batch's indices pick, written into
// the caller's (len(idx) × dim) tensors: row i of both derives from
// rows[idx[i]], with the draws TwoViews makes, in its order. The training
// loop's form: no row table, no view tensors of its own.
func (a Augmenter) TwoViewsInto(rng *rand.Rand, v1, v2 *tensor.Tensor, rows [][]float64, idx []int) {
	for i, j := range idx {
		a.viewInto(rng, rows[j], v1.Row(i))
		a.viewInto(rng, rows[j], v2.Row(i))
	}
}

// Batch assembles the given rows into a tensor without augmentation.
func Batch(rows [][]float64) *tensor.Tensor {
	if len(rows) == 0 {
		return tensor.New(0, 0)
	}
	t, err := tensor.Stack(rows)
	if err != nil {
		// Rows of one dataset always share a dimension; a mismatch is a
		// programming error upstream.
		panic(err)
	}
	return t
}
