package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calibre/internal/tensor"
)

func newGen(t *testing.T, spec Spec, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(spec, seed)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestSpecsAreSane(t *testing.T) {
	for _, spec := range []Spec{CIFAR10Spec(), CIFAR100Spec(), STL10Spec()} {
		if spec.NumClasses < 2 || spec.Dim < 1 {
			t.Fatalf("bad spec %+v", spec)
		}
		if _, err := NewGenerator(spec, 1); err != nil {
			t.Fatalf("spec %s: %v", spec.Name, err)
		}
	}
	if CIFAR100Spec().NumClasses != 100 {
		t.Fatal("CIFAR-100 must have 100 classes")
	}
}

func TestNewGeneratorRejectsBadSpecs(t *testing.T) {
	bad := CIFAR10Spec()
	bad.NumClasses = 1
	if _, err := NewGenerator(bad, 1); err == nil {
		t.Fatal("expected error for 1-class spec")
	}
	bad = CIFAR10Spec()
	bad.Dim = 0
	if _, err := NewGenerator(bad, 1); err == nil {
		t.Fatal("expected error for zero dim")
	}
}

// viewOf returns one augmented copy of x.
func viewOf(a Augmenter, rng *rand.Rand, x []float64) []float64 {
	out := make([]float64, len(x))
	a.viewInto(rng, x, out)
	return out
}

func TestGenerateLabeledShapeAndBalance(t *testing.T) {
	g := newGen(t, CIFAR10Spec(), 7)
	rng := rand.New(rand.NewSource(1))
	d := g.GenerateLabeled(rng, 20)
	if d.Len() != 200 {
		t.Fatalf("Len = %d, want 200", d.Len())
	}
	for c, idx := range d.ClassIndices() {
		if len(idx) != 20 {
			t.Fatalf("class %d has %d samples, want 20 each", c, len(idx))
		}
	}
	if len(d.X[0]) != g.spec.Dim {
		t.Fatalf("sample dim = %d, want %d", len(d.X[0]), g.spec.Dim)
	}
}

func TestGenerateUnlabeled(t *testing.T) {
	g := newGen(t, STL10Spec(), 7)
	rng := rand.New(rand.NewSource(2))
	d := g.GenerateUnlabeled(rng, 50)
	if d.Len() != 50 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, y := range d.Y {
		if y != Unlabeled {
			t.Fatalf("unlabeled sample has label %d", y)
		}
	}
	// ClassIndices must ignore unlabeled samples.
	for _, idx := range d.ClassIndices() {
		if len(idx) != 0 {
			t.Fatal("unlabeled samples must not count toward classes")
		}
	}
}

// Same-class samples must be closer on average than different-class samples;
// this is the structure the whole reproduction rests on.
func TestClassStructureExists(t *testing.T) {
	g := newGen(t, CIFAR10Spec(), 11)
	rng := rand.New(rand.NewSource(3))
	d := g.GenerateLabeled(rng, 30)
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < d.Len(); i += 3 {
		for j := i + 1; j < d.Len(); j += 7 {
			dist := tensor.SqDist(d.X[i], d.X[j])
			if d.Y[i] == d.Y[j] {
				intra += dist
				nIntra++
			} else {
				inter += dist
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra >= inter {
		t.Fatalf("intra-class distance %v should be < inter-class %v", intra, inter)
	}
}

// The generator world is fixed by seed: same seed ⇒ same class cores.
func TestGeneratorDeterministicWorld(t *testing.T) {
	g1 := newGen(t, CIFAR10Spec(), 5)
	g2 := newGen(t, CIFAR10Spec(), 5)
	x1 := g1.Sample(rand.New(rand.NewSource(9)), 3)
	x2 := g2.Sample(rand.New(rand.NewSource(9)), 3)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("same world seed + same rng must reproduce samples")
		}
	}
	g3 := newGen(t, CIFAR10Spec(), 6)
	x3 := g3.Sample(rand.New(rand.NewSource(9)), 3)
	same := true
	for i := range x1 {
		if x1[i] != x3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different world seeds should differ")
	}
}

func TestSubsetAndLabels(t *testing.T) {
	g := newGen(t, CIFAR10Spec(), 1)
	rng := rand.New(rand.NewSource(4))
	d := g.GenerateLabeled(rng, 5)
	sub := d.Subset([]int{0, 10, 20})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if sub.Y[0] != d.Y[0] || sub.Y[1] != d.Y[10] {
		t.Fatal("Subset labels must follow indices")
	}
	if &sub.X[0][0] != &d.X[0][0] {
		t.Fatal("Subset should share feature storage")
	}
}

func TestSplitFractions(t *testing.T) {
	g := newGen(t, CIFAR10Spec(), 1)
	rng := rand.New(rand.NewSource(5))
	d := g.GenerateLabeled(rng, 10) // 100 samples
	train, test := d.Split(rng, 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("Split = %d/%d, want 80/20", train.Len(), test.Len())
	}
	// No overlap, full coverage.
	seen := make(map[*float64]bool, d.Len())
	for _, x := range train.X {
		seen[&x[0]] = true
	}
	for _, x := range test.X {
		if seen[&x[0]] {
			t.Fatal("train/test overlap")
		}
	}
	// Tiny dataset: at least one train sample.
	tiny := d.Subset([]int{0, 1})
	tr, _ := tiny.Split(rng, 0.1)
	if tr.Len() < 1 {
		t.Fatal("Split must keep at least one training sample")
	}
}

func TestBatcherCoversEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBatcher(rng, 10, 4)
	seen := make(map[int]int)
	for i := 0; i < 3; i++ { // 4+4+2 covers one epoch
		batch, ok := b.Next()
		if !ok {
			t.Fatal("Next should succeed")
		}
		for _, j := range batch {
			seen[j]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("one epoch should cover all 10 samples, saw %d", len(seen))
	}
}

// TestPermIntoMatchesRandPerm: PermInto gives the permutation rand.Perm
// gives from the same state, and leaves the generator where Perm does,
// whatever dst held before.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 300} {
			want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			perm := want.Perm(n)
			dst := make([]int, n)
			for i := range dst {
				dst[i] = -7 * i // stale contents must not show
			}
			PermInto(got, dst)
			for i := range perm {
				if dst[i] != perm[i] {
					t.Fatalf("seed %d n %d: PermInto = %v, rand.Perm = %v", seed, n, dst, perm)
				}
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("seed %d n %d: PermInto left the generator in another state than rand.Perm", seed, n)
			}
		}
	}
}

// TestBatcherReshufflesInPlace: a batcher yields, epoch after epoch, the
// batches of a fresh rand.Perm per epoch, and past its first permutation
// reshuffles without allocating.
func TestBatcherReshufflesInPlace(t *testing.T) {
	const n, size = 33, 8
	b := NewBatcher(rand.New(rand.NewSource(11)), n, size)
	ref := rand.New(rand.NewSource(11))
	for epoch := 0; epoch < 5; epoch++ {
		perm := ref.Perm(n)
		for start := 0; n-start >= 2; start += size {
			batch, _ := b.Next()
			want := perm[start:min(start+size, n)]
			if len(batch) != len(want) {
				t.Fatalf("epoch %d: batch %v, want %v", epoch, batch, want)
			}
			for i := range want {
				if batch[i] != want[i] {
					t.Fatalf("epoch %d: batch %v, want %v", epoch, batch, want)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { b.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %.1f objects across epochs, want 0", allocs)
	}
}

func TestBatcherSkipsSingletonTail(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBatcher(rng, 5, 4)
	first, ok := b.Next()
	if !ok || len(first) != 4 {
		t.Fatalf("first batch = %v", first)
	}
	// Tail would be a single sample; batcher must reshuffle instead.
	second, ok := b.Next()
	if !ok || len(second) < 2 {
		t.Fatalf("second batch = %v, want ≥2 rows", second)
	}
}

func TestBatcherTinyDataset(t *testing.T) {
	b := NewBatcher(rand.New(rand.NewSource(9)), 1, 4)
	if _, ok := b.Next(); ok {
		t.Fatal("a 1-sample dataset cannot form contrastive batches")
	}
}

func TestAugmenterPreservesDim(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := DefaultAugmenter()
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	v := viewOf(a, rng, x)
	if len(v) != len(x) {
		t.Fatalf("view dim = %d", len(v))
	}
	// Two views should differ from each other and from the original.
	v2 := viewOf(a, rng, x)
	same := true
	for i := range v {
		if v[i] != v2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("independent views should differ")
	}
}

func TestAugmenterZeroIsIdentityNoiseless(t *testing.T) {
	a := Augmenter{}
	rng := rand.New(rand.NewSource(11))
	x := []float64{1, -2, 3}
	v := viewOf(a, rng, x)
	for i := range x {
		if v[i] != x[i] {
			t.Fatalf("zero augmenter should be identity: %v", v)
		}
	}
}

func TestTwoViewsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := DefaultAugmenter()
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	v1, v2 := a.TwoViews(rng, rows)
	if v1.Rows() != 3 || v2.Rows() != 3 || v1.Cols() != 2 {
		t.Fatalf("TwoViews shapes = %v/%v", v1.Shape(), v2.Shape())
	}
	e1, e2 := a.TwoViews(rng, nil)
	if e1.Len() != 0 || e2.Len() != 0 {
		t.Fatal("TwoViews of empty rows should be empty")
	}
}

// TestTwoViewsIntoMatchesTwoViews: the training loop's form — views of the
// rows a batch's indices pick, written into the caller's tensors (stale
// contents and all) — is TwoViews of those rows gathered into a table: same
// values by bits, same draws.
func TestTwoViewsIntoMatchesTwoViews(t *testing.T) {
	a := DefaultAugmenter()
	a.StyleDirs, a.StyleStd = tensor.RandN(rand.New(rand.NewSource(40)), 1, 2, 6), 0.3
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = tensor.RandN(rand.New(rand.NewSource(int64(41+i))), 1, 1, 6).Data()
	}
	idx := []int{7, 2, 2, 0, 8}
	gathered := make([][]float64, len(idx))
	for i, j := range idx {
		gathered[i] = rows[j]
	}
	wantRNG, gotRNG := rand.New(rand.NewSource(50)), rand.New(rand.NewSource(50))
	w1, w2 := a.TwoViews(wantRNG, gathered)
	g1, g2 := tensor.New(len(idx), 6), tensor.New(len(idx), 6)
	g1.Fill(math.NaN())
	g2.Fill(math.NaN())
	a.TwoViewsInto(gotRNG, g1, g2, rows, idx)
	for v, pair := range [][2]*tensor.Tensor{{g1, w1}, {g2, w2}} {
		for i, w := range pair[1].Data() {
			if math.Float64bits(pair[0].Data()[i]) != math.Float64bits(w) {
				t.Fatalf("view %d element %d: %v, TwoViews gives %v", v+1, i, pair[0].Data()[i], w)
			}
		}
	}
	if gotRNG.Int63() != wantRNG.Int63() {
		t.Fatal("TwoViewsInto consumed different draws")
	}
}

// Property: augmented views keep correlation with the original sample —
// the class signal survives augmentation.
func TestAugmentationPreservesSignalProperty(t *testing.T) {
	a := DefaultAugmenter()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 64)
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		v := viewOf(a, rng, x)
		return tensor.CosineSim(x, v) > 0.4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchHelper(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	b := Batch(rows)
	if b.Rows() != 2 || b.At(1, 1) != 4 {
		t.Fatalf("Batch = %v", b)
	}
	if Batch(nil).Len() != 0 {
		t.Fatal("Batch(nil) should be empty")
	}
}

func TestSTL10UnlabeledAdvantageShape(t *testing.T) {
	// STL-10's unlabeled pool must dwarf the labeled split at paper scale;
	// here we just verify the two pools coexist with the same schema.
	g := newGen(t, STL10Spec(), 3)
	rng := rand.New(rand.NewSource(13))
	labeled := g.GenerateLabeled(rng, 10)
	unlabeled := g.GenerateUnlabeled(rng, 500)
	if unlabeled.Len() <= labeled.Len() {
		t.Fatal("unlabeled pool should be larger")
	}
	if unlabeled.Dim != labeled.Dim {
		t.Fatal("pools must share dimension")
	}
}

func TestSampleFiniteValues(t *testing.T) {
	g := newGen(t, CIFAR100Spec(), 17)
	rng := rand.New(rand.NewSource(14))
	for c := 0; c < 100; c += 13 {
		x := g.Sample(rng, c)
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite sample value for class %d", c)
			}
		}
	}
}
