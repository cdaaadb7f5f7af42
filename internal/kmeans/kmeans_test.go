package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calibre/internal/data"
	"calibre/internal/tensor"
)

// blobs builds n points around k well-separated centers in d dims.
func blobs(rng *rand.Rand, k, perCluster, d int, sep, std float64) (*tensor.Tensor, []int) {
	centers := tensor.RandN(rng, sep, k, d)
	n := k * perCluster
	x := tensor.New(n, d)
	truth := make([]int, n)
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = centers.At(c, j) + rng.NormFloat64()*std
			}
			idx := c*perCluster + i
			x.SetRow(idx, row)
			truth[idx] = c
		}
	}
	return x, truth
}

func TestRunRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, truth := blobs(rng, 4, 30, 8, 6, 0.3)
	res, err := Run(rng, x, Config{K: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Clustering must match ground truth up to label permutation: check
	// purity ≥ 0.95.
	purity := clusterPurity(res.Assign, truth, 4)
	if purity < 0.95 {
		t.Fatalf("purity = %v, want ≥0.95", purity)
	}
	if res.Iters < 1 {
		t.Fatal("Iters should be ≥1")
	}
}

func clusterPurity(assign, truth []int, k int) float64 {
	counts := make(map[[2]int]int)
	for i := range assign {
		counts[[2]int{assign[i], truth[i]}]++
	}
	perCluster := make(map[int]int)
	for key, n := range counts {
		if n > perCluster[key[0]] {
			perCluster[key[0]] = n
		}
	}
	var pure int
	for _, n := range perCluster {
		pure += n
	}
	return float64(pure) / float64(len(assign))
}

func TestRunValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(3, 2)
	if _, err := Run(rng, x, Config{K: 0}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := Run(rng, tensor.New(0, 2), Config{K: 2}); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestRunClampsKToN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandN(rng, 1, 3, 4)
	res, err := Run(rng, x, Config{K: 10})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Centers.Rows() != 3 {
		t.Fatalf("K should clamp to n=3, got %d", res.Centers.Rows())
	}
}

func TestRunIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(10, 3)
	x.Fill(2)
	res, err := Run(rng, x, Config{K: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points should give zero inertia, got %v", res.Inertia)
	}
}

func TestGroupsPartitionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := blobs(rng, 3, 20, 5, 5, 0.4)
	res, err := Run(rng, x, Config{K: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	seen := make(map[int]bool)
	for c, g := range res.Groups {
		for _, i := range g {
			if seen[i] {
				t.Fatalf("point %d in multiple groups", i)
			}
			seen[i] = true
			if res.Assign[i] != c {
				t.Fatalf("group/assign inconsistency for point %d", i)
			}
		}
	}
	if len(seen) != x.Rows() {
		t.Fatalf("groups cover %d of %d points", len(seen), x.Rows())
	}
}

func TestInertiaDecreasesVsRandomAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, _ := blobs(rng, 4, 25, 6, 5, 0.5)
	res, err := Run(rng, x, Config{K: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Random centers give much worse inertia.
	randCenters := tensor.RandN(rng, 5, 4, 6)
	assign := make([]int, x.Rows())
	randInertia := assignPoints(x, randCenters, assign, make([]float64, randCenters.Rows()))
	if res.Inertia >= randInertia {
		t.Fatalf("kmeans inertia %v should beat random %v", res.Inertia, randInertia)
	}
}

func TestSilhouetteSeparatedVsMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xSep, truthSep := blobs(rng, 3, 25, 4, 8, 0.3)
	sSep := Silhouette(xSep, truthSep)
	xMix, truthMix := blobs(rng, 3, 25, 4, 0.3, 2.0) // overlapping
	sMix := Silhouette(xMix, truthMix)
	if sSep <= sMix {
		t.Fatalf("separated silhouette %v should exceed mixed %v", sSep, sMix)
	}
	if sSep < 0.5 {
		t.Fatalf("well-separated blobs should score high, got %v", sSep)
	}
}

func TestSilhouetteEdgeCases(t *testing.T) {
	if Silhouette(tensor.New(0, 2), nil) != 0 {
		t.Fatal("empty input should score 0")
	}
	one := tensor.RandN(rand.New(rand.NewSource(8)), 1, 5, 2)
	if Silhouette(one, []int{0, 0, 0, 0, 0}) != 0 {
		t.Fatal("single cluster should score 0")
	}
	// Singletons contribute zero but don't crash.
	x := data.Batch([][]float64{{0, 0}, {10, 10}, {20, 20}})
	s := Silhouette(x, []int{0, 1, 2})
	if s != 0 {
		t.Fatalf("all-singleton clustering should score 0, got %v", s)
	}
}

func TestSilhouetteRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		x := tensor.RandN(rng, 1, n, 3)
		labels := make([]int, n)
		k := 2 + rng.Intn(3)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		s := Silhouette(x, labels)
		return s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanDistanceToAssigned(t *testing.T) {
	x := data.Batch([][]float64{{0, 0}, {2, 0}})
	centers := data.Batch([][]float64{{0, 0}, {3, 0}})
	got := MeanDistanceToAssigned(x, centers, []int{0, 1})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean distance = %v, want 0.5", got)
	}
	if MeanDistanceToAssigned(tensor.New(0, 2), centers, nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

// Property: inertia equals the sum of squared distances implied by Assign.
func TestInertiaConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := tensor.RandN(rng, 2, n, 4)
		res, err := Run(rng, x, Config{K: 3})
		if err != nil {
			return false
		}
		var want float64
		for i := 0; i < n; i++ {
			want += tensor.SqDist(x.Row(i), res.Centers.Row(res.Assign[i]))
		}
		return math.Abs(want-res.Inertia) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// naiveSilhouette is the definition SilhouetteFrom must reproduce bit for
// bit: every distance computed where it is used, groups in order of first
// appearance, members in ascending index order.
func naiveSilhouette(x *tensor.Tensor, labels []int) float64 {
	n := x.Rows()
	var order []int // distinct labels, by first appearance
	members := map[int][]int{}
	for i, l := range labels {
		if _, ok := members[l]; !ok {
			order = append(order, l)
		}
		members[l] = append(members[l], i)
	}
	if len(order) < 2 {
		return 0
	}
	dist := func(i, j int) float64 { return math.Sqrt(tensor.SqDist(x.Row(i), x.Row(j))) }
	var total float64
	for i := 0; i < n; i++ {
		own := members[labels[i]]
		if len(own) <= 1 {
			continue
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += dist(i, j)
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for _, l := range order {
			if l == labels[i] {
				continue
			}
			var m float64
			for _, j := range members[l] {
				m += dist(i, j)
			}
			m /= float64(len(members[l]))
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

// TestSilhouetteSharedDistancesBitIdentical: scoring from distances computed
// once (heap or arena buffer), one pass per point, equals computing every
// distance in place group by group — for dense labels (the table on the
// stack), for small negative ones with gaps, for a span past the stack
// table, and for sparse, negative and huge ones (the map fallback); with one
// group only (k = 1), and with singleton groups among the others.
func TestSilhouetteSharedDistancesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	arena := tensor.NewArena()
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(60)
		x := tensor.RandN(rng, 1, n, 1+rng.Intn(24))
		k := 1 + rng.Intn(6)
		values := []int{0, 1, 2, 3, 4, 5}
		switch trial % 4 {
		case 1:
			values = []int{-7, 3, 1 << 40, -(1 << 50), 12, math.MaxInt}
		case 2:
			values = []int{-9, -3, -8, 0, 4, -1}
		case 3:
			values = []int{40, 2, 75, 3, 0, 41}
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = values[rng.Intn(k)]
		}
		if trial%3 == 0 && k > 1 { // two groups of one point each
			labels[0], labels[n-1] = values[0]+100, values[0]+101
		}
		want := naiveSilhouette(x, labels)
		if got := Silhouette(x, labels); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Silhouette = %v, naive = %v", trial, got, want)
		}
		dist := PairDistances(arena, x)
		got := SilhouetteFrom(dist, labels)
		arena.Put(dist)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: SilhouetteFrom = %v, naive = %v", trial, got, want)
		}
	}
	if out := arena.Stats().Outstanding; out != 0 {
		t.Fatalf("%d distance buffers never returned", out)
	}
}

// TestSilhouetteRejectsLabelCountMismatch: too few labels used to die on a
// bare index error deep in the grouping loop, too many silently scored a
// prefix; both are now refused at entry, naming the two lengths.
func TestSilhouetteRejectsLabelCountMismatch(t *testing.T) {
	x := tensor.RandN(rand.New(rand.NewSource(32)), 1, 4, 2)
	for _, labels := range [][]int{nil, {0, 1}, {0, 1, 0, 1, 0}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("kmeans: Silhouette needs one label per point, got %d labels for 4 points", len(labels))
				if msg != want {
					t.Fatalf("%d labels: panic %q, want %q", len(labels), msg, want)
				}
			}()
			Silhouette(x, labels)
		}()
	}
}

// naiveRun is Run with every distance computed where it is used, one SqDist
// per (point, centre) pair in the point-minus-centre orientation: the
// definition the SqDistRows call sites must reproduce bit for bit, rng draws
// included. Only the centroid update is shared with Run.
func naiveRun(rng *rand.Rand, x *tensor.Tensor, k int) (centers *tensor.Tensor, assign []int, inertia float64) {
	n := x.Rows()
	centers = tensor.New(k, x.Cols())
	centers.SetRow(0, x.Row(rng.Intn(n)))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = tensor.SqDist(x.Row(i), centers.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, v := range dist {
			total += v
		}
		pick := 0
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			u, acc := rng.Float64()*total, 0.0
			for i, v := range dist {
				if acc += v; u <= acc {
					pick = i
					break
				}
			}
		}
		centers.SetRow(c, x.Row(pick))
		for i := range dist {
			if nd := tensor.SqDist(x.Row(i), centers.Row(c)); nd < dist[i] {
				dist[i] = nd
			}
		}
	}
	assign = make([]int, n)
	assignAll := func() float64 {
		var inertia float64
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := tensor.SqDist(x.Row(i), centers.Row(c)); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			inertia += bestD
		}
		return inertia
	}
	counts, prev := make([]int, k), math.Inf(1)
	for iters := 1; iters <= 25; iters++ {
		inertia = assignAll()
		updateCenters(rng, x, centers, assign, counts)
		if prev-inertia <= 1e-4*math.Max(prev, 1) {
			break
		}
		prev = inertia
	}
	return centers, assign, assignAll()
}

// TestDistancesMatchNaiveReference pins the three users of
// tensor.SqDistRows in this package to per-pair SqDist loops on the shapes
// the federation clusters (32 points of 48 features, every K SelectK tries)
// and on 37 points of 5, which end on a partial seeding chunk: Run's
// centres, assignment, inertia and rng consumption (seeding measures from
// the centre to the points, the reference from the point to the centre),
// and every PairDistances entry. Some batches repeat points, so that
// equidistant centres, zero D² mass and emptied clusters occur.
func TestDistancesMatchNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		n, d := 32, 48
		if seed >= 6 {
			n, d = 37, 5
		}
		x := tensor.RandN(rand.New(rand.NewSource(40+seed)), 1, n, d)
		if seed%2 == 1 {
			for i := 1; i < n; i++ {
				if i%int(2+seed) != 0 {
					x.SetRow(i, x.Row(i%3))
				}
			}
		}
		for _, k := range []int{2, 3, 4, 6, 8, 10} {
			rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			res, err := Run(rng, x, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			centers, assign, inertia := naiveRun(refRNG, x, k)
			if math.Float64bits(res.Inertia) != math.Float64bits(inertia) {
				t.Fatalf("seed %d K=%d: inertia %v, reference %v", seed, k, res.Inertia, inertia)
			}
			for i, a := range assign {
				if res.Assign[i] != a {
					t.Fatalf("seed %d K=%d: point %d assigned to %d, reference %d", seed, k, i, res.Assign[i], a)
				}
			}
			for i, c := range centers.Data() {
				if got := res.Centers.Data()[i]; math.Float64bits(got) != math.Float64bits(c) {
					t.Fatalf("seed %d K=%d: centre element %d is %v, reference %v", seed, k, i, got, c)
				}
			}
			if rng.Int63() != refRNG.Int63() {
				t.Fatalf("seed %d K=%d: Run consumed a different number of rng draws", seed, k)
			}
		}
		dist := PairDistances(nil, x)
		for i, at := 1, 0; i < n; i++ {
			for j := 0; j < i; j, at = j+1, at+1 {
				if want := math.Sqrt(tensor.SqDist(x.Row(i), x.Row(j))); math.Float64bits(dist[at]) != math.Float64bits(want) {
					t.Fatalf("seed %d: distance (%d,%d) is %v, reference %v", seed, i, j, dist[at], want)
				}
			}
		}
	}
}
