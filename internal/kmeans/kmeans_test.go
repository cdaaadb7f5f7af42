package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	randInertia := assignPoints(x, randCenters, assign)
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

// naiveSilhouette is the definition Silhouette must reproduce bit for bit: every distance computed where it is used, groups in order of first
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
// once, one pass per point — Silhouette, and Result.Silhouette on the
// clustering the labels are where they are dense enough for one — equals
// computing every distance in place group by group, for dense labels, for
// small negative ones with gaps, for a wide span of small ones, and for
// sparse, negative and huge ones; with one group only (k = 1), and with
// singleton groups among the others.
func TestSilhouetteSharedDistancesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
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
		if res := resultOf(labels); res != nil {
			_, dist := pairTablesOf(x)
			if got := res.Silhouette(dist, make([]float64, 4*n)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Result.Silhouette = %v, naive = %v", trial, got, want)
			}
		}
	}
}

// TestSilhouetteNonFiniteRowsMatchNaive holds Silhouette, and
// Result.Silhouette, which reads a clustering's member lists, to
// naiveSilhouette, the per-pair
// loop that skips j = i, on rows holding +Inf, −Inf or NaN among dense,
// sparse and singleton labels. Where the operands are random, two NaNs may
// meet in a sum, and which payload an addition keeps is the compiler's
// choice in the naive loop, so any NaN matches any NaN there. The fixed
// case is compared by its bits: its first non-finite point, holding +Inf,
// shares a group with a later one holding a NaN with a payload of its own,
// so that point's chain is that payload — unless the +0 diagonal of the
// root table is anything else, such as its own distance, the NaN of
// Inf − Inf, which would come first in the chain and be kept.
func TestSilhouetteNonFiniteRowsMatchNaive(t *testing.T) {
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	check := func(what string, x *tensor.Tensor, labels []int, exact bool) {
		t.Helper()
		want := naiveSilhouette(x, labels)
		_, dist := pairTablesOf(x)
		scores := map[string]float64{"Silhouette": Silhouette(x, labels)}
		if res := resultOf(labels); res != nil {
			scores["Result.Silhouette"] = res.Silhouette(dist, slices.Repeat([]float64{math.NaN()}, 4*x.Rows()+1))
		}
		for name, got := range scores {
			if exact && math.Float64bits(got) != math.Float64bits(want) || !same(got, want) {
				t.Fatalf("%s: %s = %v (%#x), naive = %v (%#x)", what, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	payload := math.Float64frombits(0x7FF8_0000_0000_ABCD)
	x := tensor.RandN(rand.New(rand.NewSource(35)), 1, 12, 4)
	x.Set(1, 0, math.Inf(1))
	x.Set(3, 2, payload)
	labels := []int{0, 1, 0, 1, 0, 1, 2, 2, 2, 2, 0, 1}
	check("+Inf before a NaN payload in its group", x, labels, true)

	rng := rand.New(rand.NewSource(36))
	specials := []float64{math.Inf(1), math.Inf(-1), payload, math.NaN()}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(90)
		x := tensor.RandN(rng, 1, n, 1+rng.Intn(8))
		for range 1 + rng.Intn(3) {
			x.Set(rng.Intn(n), rng.Intn(x.Cols()), specials[rng.Intn(len(specials))])
		}
		values := [][]int{{0, 1, 2, 3}, {-5, 7, 40, 3}, {1 << 40, -1, 9, 0}, {0, 5, 2, 7}}[trial%4]
		labels := make([]int, n)
		for i := range labels {
			labels[i] = values[rng.Intn(1+rng.Intn(len(values)))]
		}
		if trial%5 == 0 { // a singleton
			labels[rng.Intn(n)] = 1000
		}
		check(fmt.Sprintf("trial %d (n=%d)", trial, n), x, labels, false)
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

// resultOf is the Result whose clustering labels is — member lists
// ascending, one per label value, empty ones included — when the labels
// are dense enough for it (0 … 99), and nil otherwise.
func resultOf(labels []int) *Result {
	k := 0
	for _, l := range labels {
		if l < 0 || l >= 100 {
			return nil
		}
		k = max(k, l+1)
	}
	res := &Result{Assign: labels, Groups: make([][]int, k)}
	for i, l := range labels {
		res.Groups[l] = append(res.Groups[l], i)
	}
	return res
}

// TestLloydStopsAfterOneIteration records a defect, not a design: the
// stop test of Run's loop passes on its first iteration for every finite
// inertia, because the previous inertia starts at +Inf (see maxIters), so
// every Run on finite points reports one iteration. A fix of the loop
// makes this test fail, and must turn it around.
func TestLloydStopsAfterOneIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ws := new(Workspace)
	for trial := 0; trial < 40; trial++ {
		x := tensor.RandN(rng, 1, 32, 24)
		for _, k := range []int{2, 3, 4, 6, 8, 10} {
			res, err := ws.Run(rng, x, Config{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != 1 {
				t.Fatalf("trial %d K=%d: %d Lloyd iterations; the stop test no longer passes on the first one", trial, k, res.Iters)
			}
		}
	}
}

// naiveSqDist is the squared distance as SqDist defines it, restated here
// so that the references below do not run the code they check.
func naiveSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// naiveUpdateCenters is the centroid update as a scalar loop: every point's
// row added to its cluster's centre in point order, from a cleared centre,
// then each centre multiplied by the inverse of its count; an empty
// cluster is reseeded to a random point, in cluster order.
func naiveUpdateCenters(rng *rand.Rand, x, centers *tensor.Tensor, assign []int) {
	n, d, k := x.Rows(), x.Cols(), centers.Rows()
	counts := make([]int, k)
	centers.Zero()
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		for j := 0; j < d; j++ {
			centers.Row(c)[j] += x.Row(i)[j]
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			centers.SetRow(c, x.Row(rng.Intn(n)))
			continue
		}
		inv := 1 / float64(counts[c])
		for j := 0; j < d; j++ {
			centers.Row(c)[j] *= inv
		}
	}
}

// naiveRun is Run with every distance computed where it is used, one
// naiveSqDist per (point, centre) pair in the point-minus-centre
// orientation, and the centroids updated by naiveUpdateCenters: the
// definition the distance tiles and rows and the row kernel's group sums
// must reproduce bit for bit, rng draws included.
func naiveRun(rng *rand.Rand, x *tensor.Tensor, k int) (centers *tensor.Tensor, assign []int, inertia float64) {
	n := x.Rows()
	centers = tensor.New(k, x.Cols())
	centers.SetRow(0, x.Row(rng.Intn(n)))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = naiveSqDist(x.Row(i), centers.Row(0))
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
			if nd := naiveSqDist(x.Row(i), centers.Row(c)); nd < dist[i] {
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
				if d := naiveSqDist(x.Row(i), centers.Row(c)); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
			inertia += bestD
		}
		return inertia
	}
	prev := math.Inf(1)
	for iters := 1; iters <= 25; iters++ {
		inertia = assignAll()
		naiveUpdateCenters(rng, x, centers, assign)
		if prev-inertia <= 1e-4*math.Max(prev, 1) {
			break
		}
		prev = inertia
	}
	return centers, assign, assignAll()
}

// TestDistancesMatchNaiveReference pins the distance users of this package
// — seeding, assignment and PairTablesInto — to per-pair naiveSqDist loops
// on the shapes the federation clusters (32 points of 48 features) and on
// point counts that are not a multiple of four (37 of 5, 30 of 7), which end
// on partial tiles and a partial sixteen-point seeding chunk, for K on both
// sides of the four-centre tile: Run's centres, assignment, inertia and
// rng consumption (seeding measures from the centre to the points, the
// reference from the point to the centre), and every entry of both tables.
// Some batches repeat points, so that equidistant centres, zero D² mass
// and emptied clusters occur.
func TestDistancesMatchNaiveReference(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		n, d := 32, 48
		switch {
		case seed >= 7:
			n, d = 30, 7
		case seed >= 5:
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
		for _, k := range []int{1, 2, 3, 4, 5, 6, 8, 10} {
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
		checkPairTables(t, fmt.Sprintf("seed %d", seed), x)
	}
}

// checkPairTables holds every entry of x's square tables, as
// PairTablesInto fills them over poisoned destinations, to per-pair
// naiveSqDist loops, bit for bit, in both places a pair is stored: the
// squared table's (i, j) and (j, i) are naiveSqDist(x_i, x_j), its diagonal
// naiveSqDist(x_i, x_i) (NaN for a row holding ±Inf or NaN); the root
// table's are their square roots off the diagonal and +0 on it. The root
// table filled alone, as Silhouette fills it, is the same.
func checkPairTables(t *testing.T, what string, x *tensor.Tensor) {
	t.Helper()
	n := x.Rows()
	sq, dist := pairTablesOf(x)
	for i := range n {
		for j := range n {
			wantSq := naiveSqDist(x.Row(i), x.Row(j))
			want := math.Sqrt(wantSq)
			if i == j {
				want = 0
			}
			if got := sq[i*n+j]; math.Float64bits(got) != math.Float64bits(wantSq) {
				t.Fatalf("%s: squared distance (%d,%d) is %v, reference %v", what, i, j, got, wantSq)
			}
			if got := dist[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: distance (%d,%d) is %v, reference %v", what, i, j, got, want)
			}
		}
	}
	alone := slices.Repeat([]float64{math.NaN()}, n*n)
	pairTables(nil, alone, x)
	if !slices.Equal(bitsOf(alone), bitsOf(dist)) {
		t.Fatalf("%s: the root table filled alone differs from PairTablesInto's", what)
	}
}

// pairTablesOf returns x's squared and root tables, filled by PairTablesInto
// over destinations poisoned with NaN.
func pairTablesOf(x *tensor.Tensor) (sq, dist []float64) {
	n := x.Rows()
	sq, dist = slices.Repeat([]float64{math.NaN()}, n*n), slices.Repeat([]float64{math.NaN()}, n*n)
	PairTablesInto(sq, dist, x)
	return sq, dist
}

// bitsOf returns the bit patterns of v.
func bitsOf(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, f := range v {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// TestPairDistancesEveryTileEdge runs PairTablesInto at every point count
// from 0 to 21 — each way the four-row blocks and their diagonal can end —
// and at the federation's 32 and 64, with infinities among the features so
// that Inf−Inf reaches some pairs and the diagonal of some rows, and a NaN
// in one row, whose every distance is NaN.
func TestPairDistancesEveryTileEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range append([]int{32, 64}, func() (ns []int) {
		for n := range 22 {
			ns = append(ns, n)
		}
		return ns
	}()...) {
		x := tensor.RandN(rng, 1, n, 6)
		if n > 3 {
			x.Set(1, 2, math.Inf(1))
			x.Set(n-1, 2, math.Inf(1))
			x.Set(n-2, 4, math.NaN())
		}
		checkPairTables(t, fmt.Sprintf("n=%d", n), x)
	}
}

// TestAssignPointsMatchesNaiveLoop holds assignPoints to a per-point
// naiveSqDist loop over the centres (lowest index among equals, inertia in
// point order) for K ∈ {1, 2, 3, 5, 10} and point counts that are not a
// multiple of four, with centres that repeat points and each other so that
// ties and zero distances occur.
func TestAssignPointsMatchesNaiveLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 13, 30, 37} {
		for _, k := range []int{1, 2, 3, 5, 10} {
			for _, d := range []int{1, 5, 48} {
				rng := rand.New(rand.NewSource(int64(1000*n + 10*k + d)))
				x, centers := tensor.RandN(rng, 1, n, d), tensor.RandN(rng, 1, k, d)
				centers.SetRow(k-1, x.Row(n-1))
				if k > 2 {
					centers.SetRow(1, centers.Row(k-2)) // a tie between centres 1 and k−2
				}
				assign := make([]int, n)
				inertia := assignPoints(x, centers, assign)
				var want float64
				for i := range n {
					best, bestD := 0, math.Inf(1)
					for c := range k {
						if dc := naiveSqDist(x.Row(i), centers.Row(c)); dc < bestD {
							best, bestD = c, dc
						}
					}
					if assign[i] != best {
						t.Fatalf("n=%d K=%d d=%d: point %d assigned to %d, reference %d", n, k, d, i, assign[i], best)
					}
					want += bestD
				}
				if math.Float64bits(inertia) != math.Float64bits(want) {
					t.Fatalf("n=%d K=%d d=%d: inertia %v, reference %v", n, k, d, inertia, want)
				}
			}
		}
	}
}

// TestSeedPlusPlusMatchesNaiveLoop holds the k-means++ seeding to a
// reference that measures every distance with naiveSqDist from the point
// to the centre, for K ∈ {1, 2, 3, 5, 10} and point counts on both sides
// of the sixteen-point chunks, with the distances computed and read from
// the squared-distance table: the same centres, each a copy of the point it
// records as picked, the same draws from rng, and every point's distance to
// its nearest centre, bit for bit.
func TestSeedPlusPlusMatchesNaiveLoop(t *testing.T) {
	for _, n := range []int{1, 5, 15, 16, 17, 30, 33, 37, 64} {
		for _, k := range []int{1, 2, 3, 5, 10} {
			if k > n {
				continue
			}
			for _, table := range []bool{false, true} {
				x := tensor.RandN(rand.New(rand.NewSource(int64(n*16+k))), 1, n, 7)
				var sq []float64
				if table {
					sq, _ = pairTablesOf(x)
				}
				rng, refRNG := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
				centers, dist, picks := tensor.New(k, 7), make([]float64, n), make([]int, k)
				seedPlusPlus(rng, x, centers, dist, picks, sq)
				for c, p := range picks {
					if !slices.Equal(centers.Row(c), x.Row(p)) {
						t.Fatalf("n=%d K=%d table=%v: centre %d is not point %d, its recorded pick", n, k, table, c, p)
					}
				}

				want, wantDist := tensor.New(k, 7), make([]float64, n)
				want.SetRow(0, x.Row(refRNG.Intn(n)))
				for i := range wantDist {
					wantDist[i] = naiveSqDist(x.Row(i), want.Row(0))
				}
				for c := 1; c < k; c++ {
					var total float64
					for _, v := range wantDist {
						total += v
					}
					pick := 0
					if total <= 0 {
						pick = refRNG.Intn(n)
					} else {
						u, acc := refRNG.Float64()*total, 0.0
						for i, v := range wantDist {
							if acc += v; u <= acc {
								pick = i
								break
							}
						}
					}
					want.SetRow(c, x.Row(pick))
					for i := range wantDist {
						if nd := naiveSqDist(x.Row(i), want.Row(c)); nd < wantDist[i] {
							wantDist[i] = nd
						}
					}
				}
				for i, w := range want.Data() {
					if math.Float64bits(centers.Data()[i]) != math.Float64bits(w) {
						t.Fatalf("n=%d K=%d table=%v: centre element %d is %v, reference %v", n, k, table, i, centers.Data()[i], w)
					}
				}
				for i, w := range wantDist {
					if math.Float64bits(dist[i]) != math.Float64bits(w) {
						t.Fatalf("n=%d K=%d table=%v: point %d is %v from its nearest centre, reference %v", n, k, table, i, dist[i], w)
					}
				}
				if rng.Int63() != refRNG.Int63() {
					t.Fatalf("n=%d K=%d table=%v: seeding consumed a different number of rng draws", n, k, table)
				}
			}
		}
	}
}
