package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

func testArch() ssl.Arch {
	return ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
}

func testDataset(t *testing.T, perClass int) *data.Dataset {
	t.Helper()
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	g, err := data.NewGenerator(spec, 5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g.GenerateLabeled(rand.New(rand.NewSource(1)), perClass)
}

func TestSupModelShapesAndMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewSupModel(rng, testArch(), 10)
	total := nn.ParamCount(m)
	enc := m.EncoderParamCount()
	if enc <= 0 || enc >= total {
		t.Fatalf("encoder boundary = %d of %d", enc, total)
	}
	em, hm := m.EncoderMask(), m.HeadMask()
	if len(em) != total || len(hm) != total {
		t.Fatal("mask lengths")
	}
	for i := range em {
		if em[i] == hm[i] {
			t.Fatal("masks must be complements")
		}
		if em[i] != (i < enc) {
			t.Fatal("encoder mask must cover the prefix")
		}
	}
	x := tensor.RandN(rng, 1, 4, 16)
	if got := m.Forward(x).Value; got.Rows() != 4 || got.Cols() != 10 {
		t.Fatalf("logits shape = %v", got.Shape())
	}
}

func TestTrainSupervisedLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := testDataset(t, 30)
	m := NewSupModel(rng, testArch(), 10)
	before := m.Accuracy(ds)
	cfg := DefaultSupTrainConfig()
	cfg.Epochs = 12
	loss, err := TrainSupervised(rng, m, ds, cfg)
	if err != nil {
		t.Fatalf("TrainSupervised: %v", err)
	}
	after := m.Accuracy(ds)
	if after <= before+0.2 {
		t.Fatalf("training should improve accuracy: %v -> %v (loss %v)", before, after, loss)
	}
}

func TestTrainSupervisedFreezeEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := testDataset(t, 10)
	m := NewSupModel(rng, testArch(), 10)
	encBefore := nn.Flatten(m.Encoder)
	headBefore := nn.Flatten(m.Head)
	cfg := DefaultSupTrainConfig()
	cfg.Epochs = 2
	cfg.FreezeEncoder = true
	if _, err := TrainSupervised(rng, m, ds, cfg); err != nil {
		t.Fatalf("TrainSupervised: %v", err)
	}
	encAfter := nn.Flatten(m.Encoder)
	for i := range encBefore {
		if encBefore[i] != encAfter[i] {
			t.Fatal("frozen encoder must not move")
		}
	}
	headAfter := nn.Flatten(m.Head)
	moved := false
	for i := range headBefore {
		if headBefore[i] != headAfter[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("head should move")
	}
}

func TestTrainSupervisedFreezeHead(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := testDataset(t, 10)
	m := NewSupModel(rng, testArch(), 10)
	headBefore := nn.Flatten(m.Head)
	cfg := DefaultSupTrainConfig()
	cfg.Epochs = 1
	cfg.FreezeHead = true
	if _, err := TrainSupervised(rng, m, ds, cfg); err != nil {
		t.Fatalf("TrainSupervised: %v", err)
	}
	headAfter := nn.Flatten(m.Head)
	for i := range headBefore {
		if headBefore[i] != headAfter[i] {
			t.Fatal("frozen head must not move")
		}
	}
	cfg.FreezeEncoder = true
	if _, err := TrainSupervised(rng, m, ds, cfg); err == nil {
		t.Fatal("freezing everything should error")
	}
}

func TestTrainSupervisedProximalPullsTowardTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := testDataset(t, 10)
	// Strong proximal term keeps weights near the target compared to an
	// unconstrained run.
	target := make([]float64, nn.ParamCount(NewSupModel(rand.New(rand.NewSource(6)), testArch(), 10)))
	run := func(mu float64) float64 {
		m := NewSupModel(rand.New(rand.NewSource(7)), testArch(), 10)
		cfg := DefaultSupTrainConfig()
		cfg.Epochs = 4
		cfg.ProxMu = mu
		cfg.ProxTarget = target
		if _, err := TrainSupervised(rng, m, ds, cfg); err != nil {
			t.Fatalf("TrainSupervised: %v", err)
		}
		return param.L2Dist(nn.Values(m), target)
	}
	free := run(0)
	constrained := run(5)
	if constrained >= free {
		t.Fatalf("proximal term should pull toward target: %v vs %v", constrained, free)
	}
}

func TestTrainSupervisedGradCorrectionShiftsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := testDataset(t, 5)
	run := func(correct bool) []float64 {
		m := NewSupModel(rand.New(rand.NewSource(9)), testArch(), 10)
		cfg := DefaultSupTrainConfig()
		cfg.Epochs = 1
		cfg.Momentum = 0
		if correct {
			gc := make([]float64, nn.ParamCount(m))
			for i := range gc {
				gc[i] = 0.01
			}
			cfg.GradCorrection = gc
		}
		if _, err := TrainSupervised(rand.New(rand.NewSource(10)), m, ds, cfg); err != nil {
			t.Fatalf("TrainSupervised: %v", err)
		}
		_ = rng
		return nn.Flatten(m)
	}
	plain := run(false)
	corrected := run(true)
	diff := false
	for i := range plain {
		if plain[i] != corrected[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("gradient correction must change the trajectory")
	}
}

func TestTrainSupervisedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewSupModel(rng, testArch(), 10)
	empty := &data.Dataset{NumClasses: 10, Dim: 16}
	if loss, err := TrainSupervised(rng, m, empty, DefaultSupTrainConfig()); err != nil || loss != 0 {
		t.Fatalf("empty dataset = %v, %v", loss, err)
	}
	ds := testDataset(t, 2)
	bad := DefaultSupTrainConfig()
	bad.Epochs = 0
	if _, err := TrainSupervised(rng, m, ds, bad); err == nil {
		t.Fatal("epochs=0 should error")
	}
	// A proximal target or gradient correction that does not cover the
	// model exactly is refused before the first step: a short one used to
	// panic on an index, a long one was silently truncated.
	n := nn.ParamCount(m)
	before := nn.Flatten(m)
	for _, length := range []int{0, n - 1, n + 1} {
		prox := DefaultSupTrainConfig()
		prox.ProxMu, prox.ProxTarget = 0.1, make([]float64, length)
		if _, err := TrainSupervised(rng, m, ds, prox); err == nil {
			t.Errorf("a ProxTarget of %d values for %d parameters should error", length, n)
		}
		corr := DefaultSupTrainConfig()
		corr.GradCorrection = make([]float64, length)
		if _, err := TrainSupervised(rng, m, ds, corr); err == nil {
			t.Errorf("a GradCorrection of %d values for %d parameters should error", length, n)
		}
	}
	for i, v := range nn.Flatten(m) {
		if v != before[i] {
			t.Fatal("a refused configuration must not have trained the model")
		}
	}
}

// TestTrainingStepsStayOnTheTape bounds what a warmed supervised step and a
// probe step allocate: on the tape, batch included, with every op's
// backward pass a function of its slab node and each epoch's reshuffle in
// place, nothing (4.3 and 2.3 allocations with a closure per op and a fresh
// permutation per epoch; 8 and 5 while the batch tensor, its row table and
// its labels were built on the heap; 20 and 12 while every borrowed tensor
// copied its shape and every op's parent list was a heap slice). A step
// whose graph falls back to the heap pays for every node, value, gradient
// and scratch buffer too (72 and 33 before these loops ran on a tape) and
// fails the ceilings.
func TestTrainingStepsStayOnTheTape(t *testing.T) {
	ds := testDataset(t, 4)
	m := NewSupModel(rand.New(rand.NewSource(21)), testArch(), 10)
	cfg := DefaultSupTrainConfig()
	cfg.Epochs, cfg.BatchSize = 1, 16
	train := func(epochs int) func() {
		c := cfg
		c.Epochs = epochs
		return func() {
			if _, err := TrainSupervised(rand.New(rand.NewSource(22)), m, ds, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepsPerEpoch := (ds.Len() + cfg.BatchSize - 1) / cfg.BatchSize
	train(1)() // warm the pooled tape
	perStep := (testing.AllocsPerRun(5, train(5)) - testing.AllocsPerRun(5, train(1))) / float64(4*stepsPerEpoch)
	if perStep > supStepAllocCeiling {
		t.Errorf("a warmed TrainSupervised step makes %.1f allocations, ceiling %d", perStep, supStepAllocCeiling)
	}

	feats := m.EncodeValue(data.Batch(ds.X))
	probe := func(epochs int) func() {
		hc := DefaultHeadConfig()
		hc.Epochs, hc.BatchSize = epochs, 16
		return func() {
			if _, err := TrainLinearHead(rand.New(rand.NewSource(23)), feats, ds.Y, 10, hc); err != nil {
				t.Fatal(err)
			}
		}
	}
	perStep = (testing.AllocsPerRun(5, probe(6)) - testing.AllocsPerRun(5, probe(2))) / float64(4*stepsPerEpoch)
	if perStep > probeStepAllocCeiling {
		t.Errorf("a warmed TrainLinearHead step makes %.1f allocations, ceiling %d", perStep, probeStepAllocCeiling)
	}
}

const (
	supStepAllocCeiling   = 0
	probeStepAllocCeiling = 0
)

// allocatedBytes is what the process allocates while fn runs once.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLocalUpdateAllocatesLessThanOneParameterVector: a warmed
// TrainSupervised call loads nothing, flattens nothing and borrows its
// velocity, so what it allocates — the batcher's permutation, the loop's
// closures — stays under the size of one parameter vector however
// wide the model is. Any model-sized buffer built per call (the velocity
// NewSGD used to make, a flattened update) is at least that.
func TestLocalUpdateAllocatesLessThanOneParameterVector(t *testing.T) {
	ds := testDataset(t, 4)
	arch := ssl.Arch{InputDim: 16, HiddenDim: 128, FeatDim: 64, ProjDim: 8}
	m := NewSupModel(rand.New(rand.NewSource(31)), arch, 10)
	cfg := DefaultSupTrainConfig()
	cfg.ProxMu, cfg.ProxTarget = 0.1, make([]float64, nn.ParamCount(m))
	train := func() {
		if _, err := TrainSupervised(rand.New(rand.NewSource(32)), m, ds, cfg); err != nil {
			t.Fatal(err)
		}
	}
	train() // warm the tape and velocity pools
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		least = min(least, allocatedBytes(train))
	}
	if vector := uint64(8 * nn.ParamCount(m)); least >= vector {
		t.Errorf("a warmed TrainSupervised call allocates %d bytes, one parameter vector is %d", least, vector)
	}
}

// TestGatherBatchEqualsTheHeapBatch: the batch a step borrows from its tape
// is the one data.Batch and ds.Subset(idx) assemble on the heap, on a tape
// that has lent and taken back other batches and on none.
func TestGatherBatchEqualsTheHeapBatch(t *testing.T) {
	ds := testDataset(t, 3)
	row := func(j int) []float64 { return ds.X[j] }
	tape := nn.NewTape(tensor.NewArena())
	for _, tp := range []*nn.Tape{tape, nil} {
		for _, idx := range [][]int{{0}, {7, 3, 3, 29}, seq(ds.Len()), {5, 1}} {
			x, y := gatherBatch(tp, ds.Dim, row, ds.Y, idx)
			sub := ds.Subset(idx)
			wantX, wantY := data.Batch(sub.X), sub.Y
			if !tensor.SameShape(x, wantX) || len(y) != len(wantY) {
				t.Fatalf("batch %v: shape %v and %d labels, want %v and %d", idx, x.Shape(), len(y), wantX.Shape(), len(wantY))
			}
			for i, v := range wantX.Data() {
				if math.Float64bits(x.Data()[i]) != math.Float64bits(v) {
					t.Fatalf("batch %v: element %d is %v, want %v", idx, i, x.Data()[i], v)
				}
			}
			for i, label := range wantY {
				if y[i] != label {
					t.Fatalf("batch %v: label %d is %d, want %d", idx, i, y[i], label)
				}
			}
			tp.Reset()
		}
	}
}

// TestLiteralModelTrainsLikeAConstructedOne: a SupModel assembled by struct
// literal from parts built apart is laid out on first use and from then on
// is the constructed model, bit for bit, with a cached parameter list.
func TestLiteralModelTrainsLikeAConstructedOne(t *testing.T) {
	ds := testDataset(t, 4)
	arch := testArch()
	built := NewSupModel(rand.New(rand.NewSource(41)), arch, 10)
	rng := rand.New(rand.NewSource(41))
	literal := &SupModel{
		Arch:       arch,
		NumClasses: 10,
		Encoder:    nn.MLP(rng, "enc", arch.InputDim, arch.HiddenDim, arch.FeatDim),
		Head:       nn.NewLinear(rng, arch.FeatDim, 10, "head"),
	}
	for _, freeze := range []bool{false, true} {
		cfg := DefaultSupTrainConfig()
		cfg.FreezeEncoder = freeze
		for _, m := range []*SupModel{built, literal} {
			if _, err := TrainSupervised(rand.New(rand.NewSource(42)), m, ds, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if digest(nn.Values(built)) != digest(nn.Values(literal)) {
			t.Fatalf("freeze encoder %v: the literal model and the constructed one trained apart", freeze)
		}
	}
	for name, m := range map[string]*SupModel{"constructed": built, "literal": literal} {
		if n := testing.AllocsPerRun(10, func() { m.Params(); nn.Values(m) }); n != 0 {
			t.Errorf("%s model: Params and Values allocate %v objects a call, want 0", name, n)
		}
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewSupModel(rng, testArch(), 10)
	if m.Accuracy(&data.Dataset{NumClasses: 10, Dim: 16}) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestTrainLinearHeadSeparablePerfect(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Trivially separable features: one-hot-ish clusters.
	n, k := 60, 3
	feats := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % k
		labels[i] = c
		row := make([]float64, 4)
		row[c] = 3 + rng.NormFloat64()*0.1
		feats.SetRow(i, row)
	}
	head, err := TrainLinearHead(rng, feats, labels, k, DefaultHeadConfig())
	if err != nil {
		t.Fatalf("TrainLinearHead: %v", err)
	}
	if acc := HeadAccuracy(head, feats, labels); acc < 0.95 {
		t.Fatalf("separable accuracy = %v", acc)
	}
}

func TestTrainLinearHeadValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	feats := tensor.RandN(rng, 1, 4, 3)
	if _, err := TrainLinearHead(rng, tensor.New(0, 3), nil, 2, DefaultHeadConfig()); err == nil {
		t.Fatal("empty features should error")
	}
	if _, err := TrainLinearHead(rng, feats, []int{0}, 2, DefaultHeadConfig()); err == nil {
		t.Fatal("label count mismatch should error")
	}
	bad := DefaultHeadConfig()
	bad.BatchSize = 0
	if _, err := TrainLinearHead(rng, feats, []int{0, 1, 0, 1}, 2, bad); err == nil {
		t.Fatal("batch=0 should error")
	}
}

func TestLinearProbeAccuracyEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// An explicitly easy world: well-separated linear classes so the
	// identity "encoder" suffices. This tests the probe pipeline, not
	// dataset difficulty.
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	spec.ClassSep = 4
	spec.StyleStd = 0.3
	spec.NoiseStd = 0.1
	spec.Warp = 0
	g, err := data.NewGenerator(spec, 5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	ds := g.GenerateLabeled(rng, 40)
	train, test := ds.Split(rng, 0.8)
	identity := func(x *tensor.Tensor) *tensor.Tensor { return x }
	acc, err := LinearProbeAccuracy(rng, identity, train, test, 10, DefaultHeadConfig())
	if err != nil {
		t.Fatalf("LinearProbeAccuracy: %v", err)
	}
	if acc < 0.5 {
		t.Fatalf("probe accuracy = %v, want well above chance (0.1)", acc)
	}
	if _, err := LinearProbeAccuracy(rng, identity, &data.Dataset{}, test, 10, DefaultHeadConfig()); err == nil {
		t.Fatal("empty train should error")
	}
}

func TestHeadAccuracyEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	head := nn.NewLinear(rng, 3, 2, "h")
	if HeadAccuracy(head, tensor.New(0, 3), nil) != 0 {
		t.Fatal("empty head accuracy should be 0")
	}
}
