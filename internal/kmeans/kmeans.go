// Package kmeans implements Lloyd's algorithm with k-means++ seeding. It is
// the clustering step Calibre uses to derive pseudo-labels for prototype
// generation (paper §IV-B, Algorithm 1 line 13).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/tensor"
)

// Result holds a clustering of n points into K groups.
type Result struct {
	// Centers is the K×d centroid matrix.
	Centers *tensor.Tensor
	// Assign maps each point index to its cluster in [0, K).
	Assign []int
	// Groups lists the member point indices of each cluster.
	Groups [][]int
	// Inertia is the total within-cluster squared distance.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// Config controls a Run.
type Config struct {
	K        int
	MaxIters int     // default 25
	Tol      float64 // relative inertia improvement to stop; default 1e-4
}

// Run clusters the rows of x (n×d). K is clamped to n when the batch is
// smaller than the requested number of clusters; it must be ≥1.
func Run(rng *rand.Rand, x *tensor.Tensor, cfg Config) (*Result, error) {
	n := x.Rows()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be ≥1, got %d", cfg.K)
	}
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty input")
	}
	k := cfg.K
	if k > n {
		k = n
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 25
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-4
	}

	// One buffer serves the seeding (every point's distance to its nearest
	// centre) and then the assignments (one point's distance to k ≤ n centres).
	scratch := make([]float64, n)
	centers := seedPlusPlus(rng, x, k, scratch)
	assign := make([]int, n)
	counts := make([]int, k) // reused across Lloyd iterations
	prev := math.Inf(1)
	var inertia float64
	var iters int
	for iters = 1; iters <= maxIters; iters++ {
		inertia = assignPoints(x, centers, assign, scratch)
		updateCenters(rng, x, centers, assign, counts)
		if prev-inertia <= tol*math.Max(prev, 1) {
			break
		}
		prev = inertia
	}
	// Final assignment against the last centers.
	inertia = assignPoints(x, centers, assign, scratch)
	return &Result{Centers: centers, Assign: assign, Groups: groupMembers(assign, k, counts), Inertia: inertia, Iters: iters}, nil
}

// groupMembers inverts an assignment into per-cluster member lists, all
// sub-slices of one backing array (this runs inside training steps, so it
// avoids the per-append allocations of the naive construction). counts is
// scratch of length ≥ k and is overwritten.
func groupMembers(assign []int, k int, counts []int) [][]int {
	counts = counts[:k]
	for c := range counts {
		counts[c] = 0
	}
	for _, a := range assign {
		counts[a]++
	}
	backing := make([]int, len(assign))
	groups := make([][]int, k)
	off := 0
	for c := 0; c < k; c++ {
		groups[c] = backing[off : off : off+counts[c]]
		off += counts[c]
	}
	for i, a := range assign {
		groups[a] = append(groups[a], i)
	}
	return groups
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting.
// scratch holds n values. Distances run from the centre to the points, the
// rows that lie consecutively; (c−x)² and (x−c)² are the same float.
func seedPlusPlus(rng *rand.Rand, x *tensor.Tensor, k int, scratch []float64) *tensor.Tensor {
	n, d := x.Rows(), x.Cols()
	centers := tensor.New(k, d)
	first := rng.Intn(n)
	centers.SetRow(0, x.Row(first))
	dist, xd := scratch[:n], x.Data()
	tensor.SqDistRows(dist, centers.Row(0), xd)
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist {
			total += v
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points identical; any choice works
		} else {
			u := rng.Float64() * total
			acc := 0.0
			for i, v := range dist {
				acc += v
				if u <= acc {
					pick = i
					break
				}
			}
		}
		centers.SetRow(c, x.Row(pick))
		var next [16]float64 // distances to the new centre, a stack chunk at a time
		for lo := 0; lo < n; lo += len(next) {
			chunk := next[:min(len(next), n-lo)]
			tensor.SqDistRows(chunk, centers.Row(c), xd[lo*d:(lo+len(chunk))*d])
			for i, nd := range chunk {
				if nd < dist[lo+i] {
					dist[lo+i] = nd
				}
			}
		}
	}
	return centers
}

// assignPoints assigns every point to its nearest centre (the lowest index
// among equals) and returns the inertia. scratch holds at least k values.
func assignPoints(x, centers *tensor.Tensor, assign []int, scratch []float64) float64 {
	n := x.Rows()
	toCenters := scratch[:centers.Rows()]
	var inertia float64
	for i := 0; i < n; i++ {
		tensor.SqDistRows(toCenters, x.Row(i), centers.Data())
		best, bestD := 0, math.Inf(1)
		for c, d := range toCenters {
			if d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		inertia += bestD
	}
	return inertia
}

// updateCenters recomputes centroids; an empty cluster is reseeded to a
// random point so K stays constant. counts is caller-owned scratch of
// length k, overwritten on every call.
func updateCenters(rng *rand.Rand, x, centers *tensor.Tensor, assign []int, counts []int) {
	n, d := x.Rows(), x.Cols()
	k := centers.Rows()
	for c := 0; c < k; c++ {
		counts[c] = 0
	}
	centers.Zero()
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		crow := centers.Row(c)
		xrow := x.Row(i)
		for j := 0; j < d; j++ {
			crow[j] += xrow[j]
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			centers.SetRow(c, x.Row(rng.Intn(n)))
			continue
		}
		inv := 1 / float64(counts[c])
		crow := centers.Row(c)
		for j := 0; j < d; j++ {
			crow[j] *= inv
		}
	}
}

// Silhouette computes the mean silhouette coefficient of a labeled point
// set: for each point, (b-a)/max(a,b) where a is the mean intra-cluster
// distance and b the smallest mean distance to another cluster. Values near
// +1 indicate crisp, well-separated clusters; near 0, overlapping ones.
// Points in singleton clusters contribute 0. Returns 0 when fewer than two
// clusters are populated. It panics when labels does not hold exactly one
// label per row of x.
func Silhouette(x *tensor.Tensor, labels []int) float64 {
	n := x.Rows()
	if len(labels) != n {
		panic(fmt.Sprintf("kmeans: Silhouette needs one label per point, got %d labels for %d points", len(labels), n))
	}
	return SilhouetteFrom(PairDistances(nil, x), labels)
}

// PairDistances returns the Euclidean distance between every two rows of x,
// for SilhouetteFrom: callers that score several labelings of one point set
// (core.SelectK) compute the distances once. The buffer is borrowed from
// arena (nil: the heap) and is the caller's to arena.Put. Only the strict
// lower triangle is stored — pair (i, j), i > j, at i(i−1)/2 + j — because
// (a−b)² and (b−a)² are the same float, so distance (j, i) is bit-identical
// to distance (i, j).
func PairDistances(arena *tensor.Arena, x *tensor.Tensor) []float64 {
	n := x.Rows()
	dist := arena.Get(n * (n - 1) / 2)
	at := 0
	d, xd := x.Cols(), x.Data()
	for i := 1; i < n; i++ {
		tensor.SqDistRows(dist[at:at+i], x.Row(i), xd[:i*d])
		at += i
	}
	for p, sq := range dist {
		dist[p] = math.Sqrt(sq)
	}
	return dist
}

// SilhouetteFrom is Silhouette over the PairDistances of the labeled point
// set: same value, bit for bit.
func SilhouetteFrom(dist []float64, labels []int) float64 {
	n := len(labels)
	if len(dist) != n*(n-1)/2 {
		panic(fmt.Sprintf("kmeans: SilhouetteFrom needs the %d pair distances of %d points, got %d", n*(n-1)/2, n, len(dist)))
	}
	between := func(i, j int) float64 {
		if i < j {
			i, j = j, i
		}
		return dist[i*(i-1)/2+j]
	}
	if n == 0 {
		return 0
	}
	// Remap labels to dense group indices [0,g). This runs inside Calibre's
	// per-step regularizer, so the common case (small non-negative labels)
	// uses a lookup table and one backing array instead of a map of
	// growing slices; arbitrary label values fall back to a map.
	minL, maxL := labels[0], labels[0]
	for _, l := range labels {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	idx := make([]int, n)
	g := 0
	if span := maxL - minL + 1; span > 0 && span <= 4*n+16 {
		lut := make([]int, span)
		for i := range lut {
			lut[i] = -1
		}
		for i, l := range labels {
			if lut[l-minL] < 0 {
				lut[l-minL] = g
				g++
			}
			idx[i] = lut[l-minL]
		}
	} else {
		lut := make(map[int]int, n)
		for i, l := range labels {
			j, ok := lut[l]
			if !ok {
				j = g
				lut[l] = j
				g++
			}
			idx[i] = j
		}
	}
	if g < 2 {
		return 0
	}
	groups := groupMembers(idx, g, make([]int, g))
	var total float64
	for i := 0; i < n; i++ {
		li := idx[i]
		var a float64
		own := groups[li]
		if len(own) <= 1 {
			continue // silhouette defined as 0 for singletons
		}
		for _, j := range own {
			if j != i {
				a += between(i, j)
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for l, members := range groups {
			if l == li {
				continue
			}
			var m float64
			for _, j := range members {
				m += between(i, j)
			}
			m /= float64(len(members))
			if m < b {
				b = m
			}
		}
		if denom := math.Max(a, b); denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n)
}

// MeanDistanceToAssigned returns the average Euclidean distance between each
// point and its assigned center. Calibre uses this quantity as the client's
// local divergence rate for aggregation weighting (paper §IV-B).
func MeanDistanceToAssigned(x, centers *tensor.Tensor, assign []int) float64 {
	n := x.Rows()
	if n == 0 {
		return 0
	}
	var total float64
	for i := 0; i < n; i++ {
		total += math.Sqrt(tensor.SqDist(x.Row(i), centers.Row(assign[i])))
	}
	return total / float64(n)
}
