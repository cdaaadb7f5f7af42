// Package data provides the synthetic datasets standing in for CIFAR-10,
// CIFAR-100 and STL-10 (see ARCHITECTURE.md "Synthetic substitutions"),
// plus the SSL augmentation pipeline.
//
// Each sample is produced by a latent-factor model: a class-determined core
// vector plus nuisance "style" factors, both pushed through fixed random
// projections into observation space. Augmentations perturb style and
// observation noise while preserving the class core — the invariance
// structure that self-supervised objectives (SimCLR, BYOL, ...) exploit.
package data

import "math/rand"

// Unlabeled marks a sample with no class annotation (STL-10's unlabeled
// split).
const Unlabeled = -1

// Dataset is an in-memory labeled (or partially labeled) dataset.
type Dataset struct {
	Name       string
	NumClasses int
	Dim        int
	X          [][]float64 // per-sample feature vectors
	Y          []int       // labels; Unlabeled (-1) where unknown
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns a dataset view containing the given sample indices. The
// feature slices are shared with the parent (not copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		Name:       d.Name,
		NumClasses: d.NumClasses,
		Dim:        d.Dim,
		X:          make([][]float64, len(idx)),
		Y:          make([]int, len(idx)),
	}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Split shuffles sample order (with rng) and divides the dataset into a
// train part holding trainFrac of the samples and a test part holding the
// rest. Feature slices are shared.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	idx := rng.Perm(d.Len())
	cut := int(trainFrac * float64(len(idx)))
	if cut < 1 && len(idx) > 0 {
		cut = 1
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// ClassIndices returns, for each class, the indices of its samples.
func (d *Dataset) ClassIndices() [][]int {
	out := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		if y >= 0 && y < d.NumClasses {
			out[y] = append(out[y], i)
		}
	}
	return out
}

// Batcher yields shuffled mini-batch index slices over a dataset.
type Batcher struct {
	rng   *rand.Rand
	n     int
	size  int
	perm  []int
	start int
}

// NewBatcher creates a batcher over n samples with the given batch size.
// Batches smaller than 2 samples at the epoch tail are dropped (contrastive
// losses need at least two rows).
func NewBatcher(rng *rand.Rand, n, size int) *Batcher {
	if size < 1 {
		size = 1
	}
	b := &Batcher{rng: rng, n: n, size: size}
	b.reshuffle()
	return b
}

func (b *Batcher) reshuffle() {
	b.perm = b.rng.Perm(b.n)
	b.start = 0
}

// Next returns the next batch of sample indices, reshuffling at epoch
// boundaries. It returns false when the dataset has fewer than 2 samples.
func (b *Batcher) Next() ([]int, bool) {
	if b.n < 2 {
		return nil, false
	}
	if b.start >= b.n || b.n-b.start < 2 {
		b.reshuffle()
	}
	end := b.start + b.size
	if end > b.n {
		end = b.n
	}
	batch := b.perm[b.start:end]
	b.start = end
	return batch, true
}

// Rows gathers the feature rows at idx into a contiguous [][]float64.
func (d *Dataset) Rows(idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = d.X[j]
	}
	return out
}

// Labels gathers the labels at idx.
func (d *Dataset) Labels(idx []int) []int {
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = d.Y[j]
	}
	return out
}
