// Package kmeans implements Lloyd's algorithm with k-means++ seeding. It is
// the clustering step Calibre uses to derive pseudo-labels for prototype
// generation (paper §IV-B, Algorithm 1 line 13).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	// PairSq, when not nil, is x's squared-distance table as PairTablesInto
	// fills it, which the Run reads instead of computing a distance between
	// two points of x: the seeding's, a picked centre's row of the table,
	// and the first assignment's, whose centres are still points. The
	// result and the draws from rng are the same bit for bit either way.
	PairSq []float64
}

// Lloyd's loop is meant to stop after maxIters iterations, or earlier once
// an iteration lowers the inertia by no more than tol times the previous
// inertia (times 1 when that is below 1). It does neither: the previous
// inertia starts at +Inf, and Inf − inertia ≤ tol·Inf holds for every
// finite inertia, so every Run on finite points stops after its first
// iteration (TestLloydStopsAfterOneIteration) and neither constant is ever
// reached. Every result this package has produced is that one-iteration
// clustering; ROADMAP.md holds the fix, which moves every Calibre result.
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
//
// Lloyd's loop runs one iteration on finite points, whatever maxIters and
// tol say: see their comment.
func (w *Workspace) Run(rng *rand.Rand, x *tensor.Tensor, cfg Config) (*Result, error) {
	n, d := x.Rows(), x.Cols()
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be ≥1, got %d", cfg.K)
	}
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty input")
	}
	if cfg.PairSq != nil && len(cfg.PairSq) != n*n {
		return nil, fmt.Errorf("kmeans: PairSq holds %d squared distances, want %d for %d points", len(cfg.PairSq), n*n, n)
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
	// The member lists are the centroid update's scratch until the final
	// assignment fills them.
	s.members, s.res.Groups = grow(s.members, n), grow(s.res.Groups, k)
	prev := math.Inf(1) // makes the stop test below pass on iteration 1
	var inertia float64
	var iters int
	for iters = 1; iters <= maxIters; iters++ {
		if iters == 1 && cfg.PairSq != nil {
			inertia = assignToPoints(cfg.PairSq, w.picks, assign)
		} else {
			inertia = assignPoints(x, centers, assign)
		}
		updateCenters(rng, x, centers, assign, s.res.Groups, s.members, w.counts)
		if prev-inertia <= tol*math.Max(prev, 1) {
			break
		}
		prev = inertia
	}
	// Final assignment against the last centers.
	inertia = assignPoints(x, centers, assign)
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
// scratch holds n values. A picked centre's distances to the points are
// computed, from the centre to the points, or read from sq, x's
// squared-distance table (PairTablesInto), as the centre's row of the table
// when sq is not nil.
func seedPlusPlus(rng *rand.Rand, x, centers *tensor.Tensor, scratch []float64, picks []int, sq []float64) {
	n, k := x.Rows(), centers.Rows()
	first := rng.Intn(n)
	picks[0] = first
	centers.SetRow(0, x.Row(first))
	dist := scratch[:n]
	if sq != nil {
		copy(dist, sq[first*n:][:n])
	} else {
		tensor.SqDistRows(dist, x.Row(first), x.Data())
	}
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
		if sq != nil {
			for i, nd := range sq[pick*n:][:n] {
				if nd < dist[i] {
					dist[i] = nd
				}
			}
			continue
		}
		var next [16]float64 // distances to the new centre, a stack chunk at a time
		d := x.Cols()
		for lo := 0; lo < n; lo += len(next) {
			chunk := next[:min(len(next), n-lo)]
			tensor.SqDistRows(chunk, x.Row(pick), x.Data()[lo*d:(lo+len(chunk))*d])
			for i, nd := range chunk {
				if nd < dist[lo+i] {
					dist[lo+i] = nd
				}
			}
		}
	}
}

// assignToPoints is assignPoints while the centres are still the points
// picks, with every distance read from sq, the points' squared-distance
// table (PairTablesInto): the same assignment and inertia, bit for bit.
func assignToPoints(sq []float64, picks, assign []int) float64 {
	n := len(assign)
	var inertia float64
	for i := range assign {
		row := sq[i*n:][:n]
		best, bestD := 0, math.Inf(1)
		for c, p := range picks {
			if d := row[p]; d < bestD {
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

// updateCenters recomputes centroids, each the mean of its members: their
// rows summed in ascending order from +0 (tensor.AddRowsAt), then scaled by
// the inverse of their count. An empty cluster is reseeded to a random
// point so K stays constant. groups, backing and counts are caller-owned
// scratch for groupMembers, overwritten on every call.
func updateCenters(rng *rand.Rand, x, centers *tensor.Tensor, assign []int, groups [][]int, backing, counts []int) {
	groupMembers(groups, backing, assign, counts)
	for c, members := range groups {
		if len(members) == 0 {
			centers.SetRow(c, x.Row(rng.Intn(x.Rows())))
			continue
		}
		crow := centers.Row(c)
		tensor.AddRowsAt(crow, x.Data(), members, true)
		tensor.ScaleSlice(crow, 1/float64(len(members)))
	}
}

// Silhouette computes the mean silhouette coefficient of a labeled point
// set: for each point, (b-a)/max(a,b) where a is the mean intra-cluster
// distance and b the smallest mean distance to another cluster. Values near
// +1 indicate crisp, well-separated clusters; near 0, overlapping ones.
// Points in singleton clusters contribute 0. Returns 0 when fewer than two
// clusters are populated. It panics when labels does not hold exactly one
// label per row of x.
//
// The labels are renumbered densely, each by its rank among the distinct
// values, and the groups scored by Result.Silhouette over x's root table:
// the score does not depend on how the groups are numbered, since b is a
// minimum over a set and each group's members stay ascending.
func Silhouette(x *tensor.Tensor, labels []int) float64 {
	n := x.Rows()
	if len(labels) != n {
		panic(fmt.Sprintf("kmeans: Silhouette needs one label per point, got %d labels for %d points", len(labels), n))
	}
	values := slices.Clone(labels)
	slices.Sort(values)
	values = slices.Compact(values)
	ints := make([]int, 2*n+len(values)) // assignment, member lists, counts
	r := Result{Assign: ints[:n], Groups: make([][]int, len(values))}
	for i, l := range labels {
		r.Assign[i], _ = slices.BinarySearch(values, l)
	}
	groupMembers(r.Groups, ints[n:2*n], r.Assign, ints[2*n:])
	buf := make([]float64, n*n+4*n) // the root table, then the sums
	pairTables(nil, buf[:n*n], x)
	return r.Silhouette(buf[:n*n], buf[n*n:])
}

// PairTablesInto fills x's two square distance tables from one pass over the
// pairs of its n rows: sq with SqDist between every two rows, what
// Config.PairSq takes, and dist with their Euclidean distances, what
// Result.Silhouette takes. Each is n×n and row-major: the value for (i, j)
// at i·n + j and again at j·n + i, the same float because (a−b)² and (b−a)²
// are, so that row i holds point i's distances to every point in order.
// Each square root is taken once, for the pair, not once per position. sq's
// diagonal is each row's SqDist to itself, as computed: 0 for a finite row,
// NaN for one holding ±Inf or NaN. dist's diagonal is +0, which a sum of
// distances may add for free (see silhouetteSums); off it, dist is the
// square root of sq. Square, each table is twice the strict triangle that
// holds every pair once: 2 MB at the 500 points of the largest set any
// caller clusters. It panics unless both hold n×n values.
func PairTablesInto(sq, dist []float64, x *tensor.Tensor) {
	n := x.Rows()
	if len(sq) != n*n || len(dist) != n*n {
		panic(fmt.Sprintf("kmeans: PairTablesInto of %d points into tables of %d and %d values", n, len(sq), len(dist)))
	}
	pairTables(sq, dist, x)
}

// pairTables fills x's n×n squared-distance table into sq and its root
// table into dist, either of them nil to skip it. Rows i0…i0+3 meet rows
// j0…j0+3, j0 ≤ i0, in one tensor.SqDistTile, (x_i − x_j)² as SqDistRows
// sums it, and each pair (i, j), j ≤ i, is stored at (i, j) and (j, i);
// rows past the end repeat the last one and are dropped.
func pairTables(sq, dist []float64, x *tensor.Tensor) {
	n := x.Rows()
	var (
		a, b [4][]float64
		tile [16]float64
	)
	for i0 := 0; i0 < n; i0 += 4 {
		for r := range a {
			a[r] = x.Row(min(i0+r, n-1))
		}
		for j0 := 0; j0 <= i0; j0 += 4 {
			for c := range b {
				b[c] = x.Row(min(j0+c, n-1))
			}
			tensor.SqDistTile(&tile, &a, &b)
			for r := range min(4, n-i0) {
				i := i0 + r
				for c := range min(4, i-j0+1) {
					j, v := j0+c, tile[r*4+c]
					if sq != nil {
						sq[i*n+j], sq[j*n+i] = v, v
					}
					if dist != nil {
						root := 0.0
						if i != j {
							root = math.Sqrt(v)
						}
						dist[i*n+j], dist[j*n+i] = root, root
					}
				}
			}
		}
	}
}

// Silhouette is the package's Silhouette of r's points labeled by r.Assign,
// read off r's member lists, from dist, the points' root table as
// PairTablesInto fills it. Its sums take the first 4n floats
// of scratch (n points), and it allocates nothing.
func (r *Result) Silhouette(dist, scratch []float64) float64 {
	n := len(r.Assign)
	if len(dist) != n*n || len(scratch) < 4*n {
		panic(fmt.Sprintf("kmeans: Silhouette of %d points needs %d pair distances and %d floats of scratch, got %d and %d", n, n*n, 4*n, len(dist), len(scratch)))
	}
	sums := newSilhouetteSums(scratch[:4*n])
	for _, group := range r.Groups {
		sums.add(dist, group)
	}
	return sums.score()
}

// silhouetteSums scores n points from their n×n root table, one group
// of them at a time (add), in 4n floats of scratch: per point, its summed
// distance to the group being added, its mean distance to its own group
// (a), the least of its mean distances to the other groups (b), and its own
// group's size.
//
// Point i's total distance to group g is lane i of the sum of g's rows of
// dist (tensor.AddRowsAt), each lane its own chain over g's members in
// ascending order — the order Silhouette defines — so one sum per group
// serves every point. In i's own group the chain also adds dist's +0
// diagonal where j = i would be skipped, which changes nothing: a sum of
// square roots is never −0, and x + (+0) is x for every other x, NaN and
// ±Inf included.
type silhouetteSums struct {
	sum, a, b, own []float64
	populated      int
}

func newSilhouetteSums(scratch []float64) silhouetteSums {
	n := len(scratch) / 4
	s := silhouetteSums{sum: scratch[:n], a: scratch[n : 2*n], b: scratch[2*n : 3*n], own: scratch[3*n:]}
	for i := range s.b {
		s.b[i] = math.Inf(1)
	}
	return s
}

// add takes in one group, its members ascending; an empty one is skipped.
func (s *silhouetteSums) add(dist []float64, group []int) {
	if len(group) == 0 {
		return
	}
	s.populated++
	tensor.AddRowsAt(s.sum, dist, group, true)
	// b[i] is the least of point i's mean distances to the other groups that
	// is not NaN: a minimum over a set, whatever order the groups come in.
	// Every lane takes this group's mean here, its own members' too, whose b
	// is kept in a beforehand and put back after.
	for _, i := range group {
		s.a[i] = s.b[i]
	}
	for i, sum := range s.sum {
		if m := sum / float64(len(group)); m < s.b[i] {
			s.b[i] = m
		}
	}
	for _, i := range group {
		s.a[i], s.b[i] = s.sum[i]/float64(len(group)-1), s.a[i]
		s.own[i] = float64(len(group))
	}
}

// score is the mean silhouette over every point added, 0 with fewer than two
// groups populated.
func (s *silhouetteSums) score() float64 {
	if s.populated < 2 {
		return 0
	}
	var total float64
	for i, size := range s.own {
		if size <= 1 {
			continue // silhouette defined as 0 for singletons
		}
		if denom := math.Max(s.a[i], s.b[i]); denom > 0 {
			total += (s.b[i] - s.a[i]) / denom
		}
	}
	return total / float64(len(s.own))
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
