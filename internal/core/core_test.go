package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/nn"
	"calibre/internal/partition"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

func testArch() ssl.Arch {
	return ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
}

func smallSpec() data.Spec {
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	return spec
}

func testClients(t *testing.T, n, perClient int) []*partition.Client {
	t.Helper()
	g, err := data.NewGenerator(smallSpec(), 3)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	ds := g.GenerateLabeled(rng, 12*n)
	parts, err := partition.QuantityNonIID(rng, ds, n, 2, perClient)
	if err != nil {
		t.Fatalf("QuantityNonIID: %v", err)
	}
	unl := g.GenerateUnlabeled(rng, n*10)
	return partition.BuildClients(rng, ds, parts, unl)
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := DefaultOptions()
	bad.Alpha = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative alpha should fail")
	}
	bad = DefaultOptions()
	bad.Tau = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("tau=0 should fail")
	}
	bad = DefaultOptions()
	bad.NumClusters = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("K=1 should fail")
	}
}

func stepCtx(t *testing.T, seed int64, batch int) *ssl.StepContext {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := ssl.NewBackbone(rng, testArch())
	rows := make([][]float64, batch)
	for i := range rows {
		r := make([]float64, 16)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	v1, v2 := data.DefaultAugmenter().TwoViews(rng, rows)
	return ssl.NewStepContextOn(nil, rng, b, v1, v2)
}

// apply is reg.Apply, failing the test on an error.
func apply(t *testing.T, reg *Regularizer, ctx *ssl.StepContext, base *nn.Node) *nn.Node {
	t.Helper()
	total, err := reg.Apply(ctx, base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return total
}

func TestRegularizerAddsTerms(t *testing.T) {
	reg, err := NewRegularizer(DefaultOptions())
	if err != nil {
		t.Fatalf("NewRegularizer: %v", err)
	}
	ctx := stepCtx(t, 1, 16)
	base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
	total := apply(t, reg, ctx, base)
	bv, tv := base.Value.At(0, 0), total.Value.At(0, 0)
	if tv == bv {
		t.Fatal("regularizer should change the loss")
	}
	if math.IsNaN(tv) || math.IsInf(tv, 0) {
		t.Fatalf("total loss = %v", tv)
	}
	// Gradient must flow through the regularized loss into the encoder.
	nn.NewSGD(ctx.Backbone, 0, 0, 0) // zeroed gradient storage of its own
	if err := nn.Backward(total); err != nil {
		t.Fatalf("Backward: %v", err)
	}
	var g float64
	for _, p := range ctx.Backbone.Encoder.Params() {
		for _, v := range p.Grad.Data() {
			g += v * v
		}
	}
	if g == 0 {
		t.Fatal("no gradient reached the encoder")
	}
}

func TestRegularizerAlphaZeroIsIdentity(t *testing.T) {
	opts := DefaultOptions()
	opts.Alpha = 0
	reg, err := NewRegularizer(opts)
	if err != nil {
		t.Fatalf("NewRegularizer: %v", err)
	}
	ctx := stepCtx(t, 2, 8)
	base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
	if got := apply(t, reg, ctx, base); got != base {
		t.Fatal("alpha=0 must return the base loss unchanged")
	}
}

func TestRegularizerBothTermsDisabledIsIdentity(t *testing.T) {
	opts := DefaultOptions()
	opts.UseLn, opts.UseLp = false, false
	reg, err := NewRegularizer(opts)
	if err != nil {
		t.Fatalf("NewRegularizer: %v", err)
	}
	ctx := stepCtx(t, 3, 8)
	base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
	if got := apply(t, reg, ctx, base); got != base {
		t.Fatal("disabled regularizers must be identity")
	}
}

func TestRegularizerSingleTermVariants(t *testing.T) {
	for _, tc := range []struct {
		name         string
		useLn, useLp bool
	}{{"ln-only", true, false}, {"lp-only", false, true}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.UseLn, opts.UseLp = tc.useLn, tc.useLp
			reg, err := NewRegularizer(opts)
			if err != nil {
				t.Fatalf("NewRegularizer: %v", err)
			}
			ctx := stepCtx(t, 4, 16)
			base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
			total := apply(t, reg, ctx, base)
			if total.Value.At(0, 0) == base.Value.At(0, 0) {
				t.Fatal("single-term regularizer should still change the loss")
			}
		})
	}
}

func TestRegularizerTinyBatchFallsBack(t *testing.T) {
	reg, err := NewRegularizer(DefaultOptions())
	if err != nil {
		t.Fatalf("NewRegularizer: %v", err)
	}
	ctx := stepCtx(t, 5, 2) // 2 samples can't form 2 two-view clusters reliably
	base := nn.PairNTXent(ctx.H1, ctx.H2, 0.5)
	total := apply(t, reg, ctx, base)
	if v := total.Value.At(0, 0); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("tiny batch loss = %v", v)
	}
}

func TestDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Tight clusters ⇒ low divergence; diffuse cloud ⇒ higher divergence.
	tight := tensor.New(40, 4)
	for i := 0; i < 40; i++ {
		c := float64(i % 2 * 10)
		tight.SetRow(i, []float64{c + rng.NormFloat64()*0.05, c, 0, 0})
	}
	diffuse := tensor.RandN(rng, 5, 40, 4)
	dTight, err := Divergence(rng, tight, 2)
	if err != nil {
		t.Fatalf("Divergence: %v", err)
	}
	dDiffuse, err := Divergence(rng, diffuse, 2)
	if err != nil {
		t.Fatalf("Divergence: %v", err)
	}
	if dTight >= dDiffuse {
		t.Fatalf("tight divergence %v should be < diffuse %v", dTight, dDiffuse)
	}
	if _, err := Divergence(rng, tensor.New(0, 4), 2); err == nil {
		t.Fatal("empty encodings should error")
	}
}

func TestNewValidatesOptions(t *testing.T) {
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Opts.Tau = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("bad options should fail")
	}
	cfg = DefaultConfig(testArch(), "unknown-ssl", 10)
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown SSL method should fail")
	}
	if _, err := NewPFLSSL(DefaultConfig(testArch(), "nope", 10)); err == nil {
		t.Fatal("unknown SSL method should fail for pFL-SSL too")
	}
}

func shortTrainCfg() ssl.TrainConfig {
	cfg := ssl.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 16
	return cfg
}

func TestCalibreEndToEndSimulation(t *testing.T) {
	clients := testClients(t, 6, 30)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	method, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 3, ClientsPerRound: 3, Seed: 9}, method, clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, hist, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(hist) != 3 {
		t.Fatalf("history = %d rounds", len(hist))
	}
	for _, v := range global {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("global vector contains non-finite values")
		}
	}
	accs, err := fl.PersonalizeAll(context.Background(), 9, method, clients, global, 2)
	if err != nil {
		t.Fatalf("PersonalizeAll: %v", err)
	}
	if len(accs) != len(clients) {
		t.Fatalf("accs = %d", len(accs))
	}
	for i, a := range accs {
		if a < 0 || a > 1 {
			t.Fatalf("client %d accuracy %v out of range", i, a)
		}
	}
}

func TestCalibreUpdatesCarryDivergence(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	method, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(10))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	u, err := method.Trainer.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if u.Divergence <= 0 {
		t.Fatalf("divergence = %v, want > 0", u.Divergence)
	}
	if u.NumSamples <= clients[0].Train.Len() {
		t.Fatalf("unlabeled pool should be included: %d", u.NumSamples)
	}
}

func TestPFLSSLHasNoDivergence(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	method, err := NewPFLSSL(cfg)
	if err != nil {
		t.Fatalf("NewPFLSSL: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	u, err := method.Trainer.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if u.Divergence != 0 {
		t.Fatalf("pFL-SSL should not compute divergence, got %v", u.Divergence)
	}
}

func TestSSLTrainerStatePersistsAcrossRounds(t *testing.T) {
	clients := testClients(t, 1, 24)
	factory, err := ssl.Lookup("mocov2")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	trainer := &SSLTrainer{Arch: testArch(), Factory: factory, Cfg: shortTrainCfg()}
	rng := rand.New(rand.NewSource(12))
	global, err := trainer.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	if _, err := trainer.Train(context.Background(), rng, clients[0], global, 0); err != nil {
		t.Fatalf("Train r0: %v", err)
	}
	st, _ := trainer.states.Peek(clients[0].ID)
	if _, err := trainer.Train(context.Background(), rng, clients[0], global, 1); err != nil {
		t.Fatalf("Train r1: %v", err)
	}
	if again, _ := trainer.states.Peek(clients[0].ID); again != st {
		t.Fatal("client state must persist across rounds")
	}
}

func TestLinearProbeAcrossAllSSLMethods(t *testing.T) {
	clients := testClients(t, 1, 40)
	for _, name := range ssl.MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			factory, err := ssl.Lookup(name)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			rng := rand.New(rand.NewSource(13))
			backbone := ssl.NewBackbone(rng, testArch())
			method, err := factory(rng, backbone)
			if err != nil {
				t.Fatalf("factory: %v", err)
			}
			global := nn.Flatten(&ssl.Trainable{Backbone: backbone, Method: method})
			probe := &LinearProbe{Arch: testArch(), Factory: factory, NumClasses: 10, Head: DefaultConfig(testArch(), name, 10).Head}
			acc, err := probe.Personalize(context.Background(), rng, clients[0], global)
			if err != nil {
				t.Fatalf("Personalize: %v", err)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("accuracy = %v", acc)
			}
		})
	}
}

// Calibre's calibrated representations should produce crisper clusters than
// the raw initialization — measured by divergence dropping over training.
func TestCalibreTrainingReducesDivergence(t *testing.T) {
	clients := testClients(t, 4, 40)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	method, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(14))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	first, err := method.Trainer.Train(context.Background(), rand.New(rand.NewSource(15)), clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// A few federated rounds of calibration.
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 16}, method, clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	trained, _, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	last, err := method.Trainer.Train(context.Background(), rand.New(rand.NewSource(15)), clients[0], trained, 99)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if math.IsNaN(last.Divergence) {
		t.Fatal("divergence must stay finite")
	}
	// Not a strict inequality test (stochastic), but divergence should not
	// explode after calibration.
	if last.Divergence > first.Divergence*3 {
		t.Fatalf("divergence exploded: %v -> %v", first.Divergence, last.Divergence)
	}
}
