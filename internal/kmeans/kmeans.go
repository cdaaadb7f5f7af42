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
	K int
	// PairSq, when not nil, is x's PairSqDistances, which the Run reads
	// instead of computing a distance between two points of x: the
	// seeding's, from each picked centre to every point, and the first
	// assignment's, whose centres are still points. The result and the
	// draws from rng are the same bit for bit either way.
	PairSq []float64
}

// Lloyd's loop stops after maxIters iterations, or earlier once an
// iteration lowers the inertia by no more than tol times the previous
// inertia (times 1 when that is below 1).
const (
	maxIters = 25
	tol      = 1e-4
)

// Run clusters the rows of x (n×d). K is clamped to n when the batch is
// smaller than the requested number of clusters; it must be ≥1. The result
// is the caller's: Run is Workspace.Run on a workspace of its own.
func Run(rng *rand.Rand, x *tensor.Tensor, cfg Config) (*Result, error) {
	return new(Workspace).Run(rng, x, cfg)
}

// Workspace owns everything a Run builds — seeding and assignment scratch,
// centres, assignments, member lists, the Result itself — and reuses it from
// call to call, so clustering inside a training step (Calibre's pseudo-labels:
// up to six Runs per step) allocates nothing once the workspace has seen the
// step's shapes. A result lives in one of two slots: Run writes the current
// one, Hold swaps it with the held one. The zero value is ready to use; a
// nil *Workspace works too and builds every result fresh. Not safe for
// concurrent use: one per running local update, kept with the model it
// lends (what a Run leaves behind never reaches the next Run's result).
type Workspace struct {
	scratch []float64
	counts  []int
	picks   []int // the seeding's centres, as indices of points
	slots   [2]slot
	cur     int // the slot the next Run writes; the other one is held
}

// slot is one result and the storage behind it.
type slot struct {
	res     Result
	members []int            // backing of res.Groups
	centers []*tensor.Tensor // one per (K, d) seen: a handful per client
}

// centersFor returns the slot's K×d centre matrix, contents unspecified.
func (s *slot) centersFor(k, d int) *tensor.Tensor {
	for _, c := range s.centers {
		if c.Rows() == k && c.Cols() == d {
			return c
		}
	}
	c := tensor.New(k, d)
	s.centers = append(s.centers, c)
	return c
}

// grow returns buf resliced to n elements, reallocated only when its
// capacity does not reach; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Run is the package's Run into the workspace's current slot: same result,
// bit for bit, same draws from rng. The result is valid until the next Run
// on w, or — after Hold — until the Run that follows the next Hold.
func (w *Workspace) Run(rng *rand.Rand, x *tensor.Tensor, cfg Config) (*Result, error) {
	n, d := x.Rows(), x.Cols()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be ≥1, got %d", cfg.K)
	}
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty input")
	}
	if cfg.PairSq != nil && len(cfg.PairSq) != n*(n-1)/2 {
		return nil, fmt.Errorf("kmeans: PairSq holds %d squared distances, want %d for %d points", len(cfg.PairSq), n*(n-1)/2, n)
	}
	if w == nil {
		w = new(Workspace)
	}
	k := cfg.K
	if k > n {
		k = n
	}

	// The seeding's distances, every point's to its nearest centre.
	w.scratch, w.counts, w.picks = grow(w.scratch, n), grow(w.counts, k), grow(w.picks, k)
	s := &w.slots[w.cur]
	centers := s.centersFor(k, d)
	seedPlusPlus(rng, x, centers, w.scratch, w.picks, cfg.PairSq)
	s.res.Assign = grow(s.res.Assign, n)
	assign := s.res.Assign
	prev := math.Inf(1)
	var inertia float64
	var iters int
	for iters = 1; iters <= maxIters; iters++ {
		if iters == 1 && cfg.PairSq != nil {
			inertia = assignToPoints(x, cfg.PairSq, w.picks, assign)
		} else {
			inertia = assignPoints(x, centers, assign)
		}
		updateCenters(rng, x, centers, assign, w.counts)
		if prev-inertia <= tol*math.Max(prev, 1) {
			break
		}
		prev = inertia
	}
	// Final assignment against the last centers.
	inertia = assignPoints(x, centers, assign)
	s.members, s.res.Groups = grow(s.members, n), grow(s.res.Groups, k)
	groupMembers(s.res.Groups, s.members, assign, w.counts)
	s.res.Centers, s.res.Inertia, s.res.Iters = centers, inertia, iters
	return &s.res, nil
}

// Hold makes the last Run's result outlive the Runs that follow, in place of
// whichever result was held before (which the next Run overwrites): how a
// search over several clusterings keeps its best so far. No-op on a nil
// workspace, whose results are all the caller's.
func (w *Workspace) Hold() {
	if w != nil {
		w.cur ^= 1
	}
}

// groupMembers inverts an assignment into per-cluster member lists
// groups[c] — len(groups) clusters, ascending members — all sub-slices of
// backing, which holds len(assign) values. counts is scratch of len(groups)
// values; all three are overwritten.
func groupMembers(groups [][]int, backing, assign, counts []int) {
	clear(counts)
	for _, a := range assign {
		counts[a]++
	}
	off := 0
	for c := range groups {
		groups[c] = backing[off : off : off+counts[c]]
		off += counts[c]
	}
	for i, a := range assign {
		groups[a] = append(groups[a], i)
	}
}

// seedPlusPlus picks the initial centers — every row of centers — with the
// k-means++ D² weighting, and records in picks the point each one copies.
// scratch holds n values. A picked centre's distances to the points come
// from centreDistances, computed or read from sq.
func seedPlusPlus(rng *rand.Rand, x, centers *tensor.Tensor, scratch []float64, picks []int, sq []float64) {
	n, k := x.Rows(), centers.Rows()
	first := rng.Intn(n)
	picks[0] = first
	centers.SetRow(0, x.Row(first))
	dist := scratch[:n]
	centreDistances(dist, x, first, 0, sq)
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
		picks[c] = pick
		centers.SetRow(c, x.Row(pick))
		var next [16]float64 // distances to the new centre, a stack chunk at a time
		for lo := 0; lo < n; lo += len(next) {
			chunk := next[:min(len(next), n-lo)]
			centreDistances(chunk, x, pick, lo, sq)
			for i, nd := range chunk {
				if nd < dist[lo+i] {
					dist[lo+i] = nd
				}
			}
		}
	}
}

// centreDistances writes SqDist(x_p, x_(lo+i)) to dst[i] for every i < len(dst):
// read from sq (pairSqDist) when it is not nil, computed from the centre to
// the points, the rows that lie consecutively, otherwise.
func centreDistances(dst []float64, x *tensor.Tensor, p, lo int, sq []float64) {
	if sq == nil {
		d := x.Cols()
		tensor.SqDistRows(dst, x.Row(p), x.Data()[lo*d:(lo+len(dst))*d])
		return
	}
	for i := range dst {
		dst[i] = pairSqDist(sq, x, p, lo+i)
	}
}

// pairSqDist is SqDist(x_i, x_j) read from sq, x's PairSqDistances, bit
// for bit: (x_i − x_j)² and (x_j − x_i)² are the same float. The diagonal,
// which sq does not hold, is computed: it is 0 only for a finite row.
func pairSqDist(sq []float64, x *tensor.Tensor, i, j int) float64 {
	switch {
	case i > j:
		return sq[i*(i-1)/2+j]
	case i < j:
		return sq[j*(j-1)/2+i]
	}
	return tensor.SqDist(x.Row(i), x.Row(i))
}

// assignToPoints is assignPoints while the centres are still the points
// picks of x, with every distance read from sq (pairSqDist): the same
// assignment and inertia, bit for bit.
func assignToPoints(x *tensor.Tensor, sq []float64, picks, assign []int) float64 {
	var inertia float64
	for i := range assign {
		best, bestD := 0, math.Inf(1)
		for c, p := range picks {
			if d := pairSqDist(sq, x, i, p); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		inertia += bestD
	}
	return inertia
}

// assignPoints assigns every point to its nearest centre (the lowest index
// among equals) and returns the inertia, summed in point order. Four points
// meet four centres in one tensor.SqDistTile; a ragged edge on either side
// repeats its last row, whose lanes are computed and ignored. Each distance
// is SqDist(point, centre), bit for bit.
func assignPoints(x, centers *tensor.Tensor, assign []int) float64 {
	n, k := x.Rows(), centers.Rows()
	var (
		pts, cs [4][]float64
		tile    [16]float64
		inertia float64
	)
	for i0 := 0; i0 < n; i0 += 4 {
		for r := range pts {
			pts[r] = x.Row(min(i0+r, n-1))
		}
		var best [4]int
		bestD := [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		for c0 := 0; c0 < k; c0 += 4 {
			for j := range cs {
				cs[j] = centers.Row(min(c0+j, k-1))
			}
			tensor.SqDistTile(&tile, &pts, &cs)
			for r := range best {
				for j := range min(4, k-c0) {
					if d := tile[r*4+j]; d < bestD[r] {
						best[r], bestD[r] = c0+j, d
					}
				}
			}
		}
		for r := range min(4, n-i0) {
			assign[i0+r] = best[r]
			inertia += bestD[r]
		}
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
// to distance (i, j). It is the square root of PairSqDistances.
func PairDistances(arena *tensor.Arena, x *tensor.Tensor) []float64 {
	dist := PairSqDistances(arena, x)
	for p, sq := range dist {
		dist[p] = math.Sqrt(sq)
	}
	return dist
}

// PairSqDistances returns SqDist between every two rows of x, laid out as
// PairDistances lays out their square roots, in a buffer borrowed from
// arena (nil: the heap): what Config.PairSq takes.
func PairSqDistances(arena *tensor.Arena, x *tensor.Tensor) []float64 {
	n := x.Rows()
	dist := arena.Get(n * (n - 1) / 2)
	// Rows i0…i0+3 meet rows j0…j0+3 in one tensor.SqDistTile, (x_i − x_j)²
	// as SqDistRows summed it; starting at row 1 puts ten of the sixteen
	// pairs of a block on the diagonal below it. Rows past the end repeat
	// the last one and pairs with j ≥ i are dropped.
	var (
		a, b [4][]float64
		tile [16]float64
	)
	for i0 := 1; i0 < n; i0 += 4 {
		rows := min(4, n-i0)
		for r := range a {
			a[r] = x.Row(min(i0+r, n-1))
		}
		for j0 := 0; j0 < i0+rows-1; j0 += 4 {
			for c := range b {
				b[c] = x.Row(min(j0+c, n-1))
			}
			tensor.SqDistTile(&tile, &a, &b)
			for r := range rows {
				i := i0 + r
				row := dist[i*(i-1)/2:][:i]
				for c := range min(4, i-j0) {
					row[j0+c] = tile[r*4+c]
				}
			}
		}
	}
	return dist
}

// SilhouetteFrom is Silhouette over the PairDistances of the labeled point
// set: same value, bit for bit. It allocates nothing for labels spanning at
// most silhouetteStackGroups values (a k-means assignment of K ≤ 32).
func SilhouetteFrom(dist []float64, labels []int) float64 {
	n := len(labels)
	if len(dist) != n*(n-1)/2 {
		panic(fmt.Sprintf("kmeans: SilhouetteFrom needs the %d pair distances of %d points, got %d", n*(n-1)/2, n, len(dist)))
	}
	if n == 0 {
		return 0
	}
	// Groups are indexed by label − minL; label values too spread out for a
	// table are first renumbered densely through a map.
	minL, maxL := labels[0], labels[0]
	for _, l := range labels {
		minL, maxL = min(minL, l), max(maxL, l)
	}
	span := maxL - minL + 1
	if span <= 0 || span > 4*n+16 {
		dense, ids := make([]int, n), make(map[int]int, n)
		for i, l := range labels {
			id, ok := ids[l]
			if !ok {
				id = len(ids)
				ids[l] = id
			}
			dense[i] = id
		}
		labels, minL, span = dense, 0, len(ids)
	}
	var sizesBuf [silhouetteStackGroups]int
	var sumsBuf [silhouetteStackGroups]float64
	sizes, sums := sizesBuf[:], sumsBuf[:]
	if span > silhouetteStackGroups {
		sizes, sums = make([]int, span), make([]float64, span)
	}
	sizes, sums = sizes[:span], sums[:span]
	populated := 0
	for _, l := range labels {
		if sizes[l-minL] == 0 {
			populated++
		}
		sizes[l-minL]++
	}
	if populated < 2 {
		return 0
	}
	var total float64
	for i, l := range labels {
		own := l - minL
		if sizes[own] <= 1 {
			continue // silhouette defined as 0 for singletons
		}
		// One pass over the other points, ascending: sums[g] is point i's
		// total distance to group g, each group's own addition chain in
		// member order. Pair (i, j) is stored at hi(hi−1)/2 + lo.
		clear(sums)
		row := dist[i*(i-1)/2:]
		for j, lj := range labels[:i] {
			sums[lj-minL] += row[j]
		}
		at := i*(i+1)/2 + i // pair (i+1, i)
		for j := i + 1; j < n; j++ {
			sums[labels[j]-minL] += dist[at]
			at += j
		}
		a := sums[own] / float64(sizes[own]-1)
		b := math.Inf(1)
		for g, size := range sizes {
			if g == own || size == 0 {
				continue
			}
			if m := sums[g] / float64(size); m < b {
				b = m
			}
		}
		if denom := math.Max(a, b); denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n)
}

// silhouetteStackGroups is the label span SilhouetteFrom serves from its
// stack frame.
const silhouetteStackGroups = 32

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
