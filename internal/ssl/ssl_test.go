package ssl

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

func testBackbone(t *testing.T, seed int64) *Backbone {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return NewBackbone(rng, Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8})
}

func testRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, dim)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

func buildMethod(t *testing.T, name string, b *Backbone) Method {
	t.Helper()
	f, err := Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	m, err := f(rand.New(rand.NewSource(7)), b)
	if err != nil {
		t.Fatalf("factory(%s): %v", name, err)
	}
	return m
}

func TestBackboneShapes(t *testing.T) {
	b := testBackbone(t, 1)
	x := tensor.RandN(rand.New(rand.NewSource(2)), 1, 5, 16)
	z := b.Encode(x)
	if z.Value.Cols() != 12 {
		t.Fatalf("z dim = %d", z.Value.Cols())
	}
	h := b.Project(z)
	if h.Value.Cols() != 8 {
		t.Fatalf("h dim = %d", h.Value.Cols())
	}
	if got := b.EncodeValue(x); got.Rows() != 5 {
		t.Fatalf("EncodeValue rows = %d", got.Rows())
	}
}

func TestBackboneClone(t *testing.T) {
	b := testBackbone(t, 3)
	c, err := b.Clone(rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	vb, vc := nn.Flatten(b.Encoder), nn.Flatten(c.Encoder)
	for i := range vb {
		if vb[i] != vc[i] {
			t.Fatal("clone must copy weights")
		}
	}
	// Mutating the clone must not affect the original.
	c.Encoder.Params()[0].Value.Fill(0)
	if nn.Flatten(b.Encoder)[0] == 0 {
		t.Fatal("clone must not share storage")
	}
}

func TestRegistryNamesAndLookup(t *testing.T) {
	names := MethodNames()
	want := []string{"byol", "mocov2", "simclr", "simsiam", "smog", "swav", "vicreg"}
	if len(names) != len(want) {
		t.Fatalf("MethodNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("MethodNames = %v, want %v", names, want)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown method should error")
	}
}

// Every registered method must produce a finite scalar loss and a usable
// backward pass that touches the encoder.
func TestAllMethodsLossAndGradients(t *testing.T) {
	for _, name := range MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := testBackbone(t, 11)
			m := buildMethod(t, name, b)
			rng := rand.New(rand.NewSource(5))
			rows := testRows(rng, 8, 16)
			aug := data.DefaultAugmenter()
			v1, v2 := aug.TwoViews(rng, rows)
			ctx := NewStepContextOn(nil, rng, b, v1, v2)
			loss := m.Loss(ctx)
			if loss.Value.Len() != 1 {
				t.Fatalf("loss must be scalar, got %v", loss.Value.Shape())
			}
			lv := loss.Value.At(0, 0)
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				t.Fatalf("loss = %v", lv)
			}
			tr := &Trainable{Backbone: b, Method: m}
			for _, p := range tr.Params() {
				p.ZeroGrad()
			}
			if err := nn.Backward(loss); err != nil {
				t.Fatalf("Backward: %v", err)
			}
			var gnorm float64
			for _, p := range b.Encoder.Params() {
				for _, g := range p.Grad.Data() {
					gnorm += g * g
				}
			}
			if gnorm == 0 {
				t.Fatal("encoder received no gradient")
			}
			m.AfterStep(b)
		})
	}
}

// Training any method for a few steps must reduce its own loss on a fixed
// evaluation batch (sanity check that the objectives are minimizable).
func TestMethodsTrainLossDecreases(t *testing.T) {
	for _, name := range []string{"simclr", "swav", "smog"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b := testBackbone(t, 21)
			m := buildMethod(t, name, b)
			tr := &Trainable{Backbone: b, Method: m}
			rng := rand.New(rand.NewSource(6))
			rows := testRows(rng, 48, 16)
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.BatchSize = 16
			first, err := Train(rng, tr, rows, cfg, nil)
			if err != nil {
				t.Fatalf("Train: %v", err)
			}
			var last float64
			for i := 0; i < 4; i++ {
				last, err = Train(rng, tr, rows, cfg, nil)
				if err != nil {
					t.Fatalf("Train: %v", err)
				}
			}
			if !(last < first) {
				t.Fatalf("%s loss did not decrease: first %v, last %v", name, first, last)
			}
		})
	}
}

func TestBYOLTargetLagsOnline(t *testing.T) {
	b := testBackbone(t, 31)
	m := buildMethod(t, "byol", b).(*BYOL)
	before := nn.Flatten(m.target.Encoder)
	// Move the online encoder and step.
	for _, p := range b.Encoder.Params() {
		for i, d := 0, p.Value.Data(); i < len(d); i++ {
			d[i] += 1
		}
	}
	m.AfterStep(b)
	after := nn.Flatten(m.target.Encoder)
	moved := false
	for i := range before {
		diff := after[i] - before[i]
		// EMA with momentum 0.99 moves 1% of the way.
		if math.Abs(diff-0.01) < 1e-9 {
			moved = true
		}
		if math.Abs(diff) > 0.011 {
			t.Fatalf("target moved too fast: %v", diff)
		}
	}
	if !moved {
		t.Fatal("target should move slightly toward online")
	}
}

func TestMoCoQueueGrowsAndCaps(t *testing.T) {
	b := testBackbone(t, 41)
	f := NewMoCoV2(0.5, 0.99, 20)
	mi, err := f(rand.New(rand.NewSource(1)), b)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	m := mi.(*MoCoV2)
	rng := rand.New(rand.NewSource(8))
	aug := data.DefaultAugmenter()
	for step := 0; step < 5; step++ {
		rows := testRows(rng, 8, 16)
		v1, v2 := aug.TwoViews(rng, rows)
		ctx := NewStepContextOn(nil, rng, b, v1, v2)
		loss := m.Loss(ctx)
		if err := nn.Backward(loss); err != nil {
			t.Fatalf("Backward: %v", err)
		}
		m.AfterStep(b)
	}
	if len(m.queue) != 20 {
		t.Fatalf("queue len = %d, want capped at 20", len(m.queue))
	}
}

func TestMoCoFactoryValidation(t *testing.T) {
	b := testBackbone(t, 42)
	if _, err := NewMoCoV2(0.5, 0.99, 0)(rand.New(rand.NewSource(1)), b); err == nil {
		t.Fatal("queue size 0 should error")
	}
}

func TestSMoGFactoryValidation(t *testing.T) {
	b := testBackbone(t, 43)
	if _, err := NewSMoG(1, 0.5, 0.99)(rand.New(rand.NewSource(1)), b); err == nil {
		t.Fatal("k=1 should error")
	}
}

func TestSwAVPrototypesNormalizedAfterStep(t *testing.T) {
	b := testBackbone(t, 51)
	m := buildMethod(t, "swav", b).(*SwAV)
	m.prototypes.Value.Fill(3)
	m.AfterStep(b)
	for i := 0; i < m.prototypes.Value.Rows(); i++ {
		if n := tensor.Norm2(m.prototypes.Value.Row(i)); math.Abs(n-1) > 1e-9 {
			t.Fatalf("prototype %d norm = %v", i, n)
		}
	}
}

func TestSinkhornBalancesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := tensor.RandN(rng, 1, 30, 5)
	q := Sinkhorn(scores, 0.05, 10)
	// Rows are distributions.
	for i := 0; i < q.Rows(); i++ {
		var s float64
		for _, v := range q.Row(i) {
			if v < 0 {
				t.Fatal("q must be non-negative")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Columns near-balanced: each prototype gets ≈ n/k of the mass.
	want := float64(q.Rows()) / float64(q.Cols())
	for j := 0; j < q.Cols(); j++ {
		var col float64
		for i := 0; i < q.Rows(); i++ {
			col += q.At(i, j)
		}
		if col < want*0.5 || col > want*1.5 {
			t.Fatalf("column %d mass = %v, want ≈%v", j, col, want)
		}
	}
	// Edge: empty input.
	if got := Sinkhorn(tensor.New(0, 0), 0.05, 3); got.Len() != 0 {
		t.Fatal("empty Sinkhorn should be empty")
	}
}

func TestSMoGCentersStayNormalized(t *testing.T) {
	b := testBackbone(t, 61)
	m := buildMethod(t, "smog", b).(*SMoG)
	rng := rand.New(rand.NewSource(10))
	aug := data.DefaultAugmenter()
	rows := testRows(rng, 16, 16)
	v1, v2 := aug.TwoViews(rng, rows)
	ctx := NewStepContextOn(nil, rng, b, v1, v2)
	_ = m.Loss(ctx)
	for i := 0; i < m.centers.Value.Rows(); i++ {
		if n := tensor.Norm2(m.centers.Value.Row(i)); math.Abs(n-1) > 1e-9 {
			t.Fatalf("center %d norm = %v", i, n)
		}
	}
}

func TestTrainableParamsIncludeExtras(t *testing.T) {
	b := testBackbone(t, 71)
	m := buildMethod(t, "swav", b)
	tr := &Trainable{Backbone: b, Method: m}
	base := len(b.Params())
	if got := len(tr.Params()); got != base+1 {
		t.Fatalf("Trainable params = %d, want %d", got, base+1)
	}
	// Two trainables with the same arch+method must have identical layouts
	// (the FL wire-format invariant).
	b2 := testBackbone(t, 72)
	m2 := buildMethod(t, "swav", b2)
	tr2 := &Trainable{Backbone: b2, Method: m2}
	if nn.ParamCount(tr) != nn.ParamCount(tr2) {
		t.Fatal("same architecture must yield same parameter count")
	}
	vec := nn.Flatten(tr)
	if err := nn.Unflatten(tr2, vec); err != nil {
		t.Fatalf("Unflatten across instances: %v", err)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	b := testBackbone(t, 81)
	m := buildMethod(t, "simclr", b)
	tr := &Trainable{Backbone: b, Method: m}
	rng := rand.New(rand.NewSource(12))
	rows := testRows(rng, 8, 16)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 0
	if _, err := Train(rng, tr, rows, cfg, nil); err == nil {
		t.Fatal("epochs=0 should error")
	}
	cfg = DefaultTrainConfig()
	cfg.BatchSize = 1
	if _, err := Train(rng, tr, rows, cfg, nil); err == nil {
		t.Fatal("batch=1 should error")
	}
}

func TestTrainTooFewSamplesIsNoop(t *testing.T) {
	b := testBackbone(t, 82)
	m := buildMethod(t, "simclr", b)
	tr := &Trainable{Backbone: b, Method: m}
	rng := rand.New(rand.NewSource(13))
	before := nn.Flatten(tr)
	loss, err := Train(rng, tr, testRows(rng, 1, 16), DefaultTrainConfig(), nil)
	if err != nil || loss != 0 {
		t.Fatalf("Train on 1 sample = %v, %v", loss, err)
	}
	after := nn.Flatten(tr)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("1-sample training must not move parameters")
		}
	}
}

func TestTrainHookIsApplied(t *testing.T) {
	b := testBackbone(t, 83)
	m := buildMethod(t, "simclr", b)
	tr := &Trainable{Backbone: b, Method: m}
	rng := rand.New(rand.NewSource(14))
	rows := testRows(rng, 16, 16)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	var called int
	_, err := Train(rng, tr, rows, cfg, func(ctx *StepContext, l *nn.Node) (*nn.Node, error) {
		called++
		if ctx.Z1 == nil || ctx.H2 == nil {
			t.Fatal("hook must see forward results")
		}
		return l, nil
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if called == 0 {
		t.Fatal("hook was never called")
	}
}
