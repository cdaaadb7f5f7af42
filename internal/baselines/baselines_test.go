package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

func testArch() ssl.Arch {
	return ssl.Arch{InputDim: 16, HiddenDim: 24, FeatDim: 12, ProjDim: 8}
}

func testCfg() Config {
	cfg := DefaultConfig(testArch(), 10)
	cfg.Train.Epochs = 1
	cfg.Train.BatchSize = 16
	cfg.Head.Epochs = 3
	cfg.ScriptEpochs = 5
	return cfg
}

func testClients(t *testing.T, n, perClient int) []*partition.Client {
	t.Helper()
	spec := data.CIFAR10Spec()
	spec.Dim = 16
	g, err := data.NewGenerator(spec, 3)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	ds := g.GenerateLabeled(rng, 10*n)
	parts, err := partition.QuantityNonIID(rng, ds, n, 2, perClient)
	if err != nil {
		t.Fatalf("QuantityNonIID: %v", err)
	}
	unl := g.GenerateUnlabeled(rng, n*8)
	return partition.BuildClients(rng, ds, parts, unl)
}

func TestRegistryCoversPaperMethods(t *testing.T) {
	names := MethodNames()
	want := []string{
		"apfl", "calibre-simclr", "ditto", "fedavg", "fedavg-ft", "fedbabu",
		"fedema", "fedper", "fedrep", "lg-fedavg", "perfedavg", "pfl-byol",
		"pfl-simclr", "scaffold", "scaffold-ft", "script-convergent", "script-fair",
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("registry missing %q; have %v", w, names)
		}
	}
	if _, err := Build("nope", testCfg(), 4); err == nil {
		t.Fatal("unknown method should error")
	}
}

// Every registered method must complete a miniature federation + full
// personalization without errors or non-finite values.
func TestEveryMethodEndToEnd(t *testing.T) {
	clients := testClients(t, 4, 24)
	for _, name := range MethodNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := Build(name, testCfg(), len(clients))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 2, ClientsPerRound: 2, Seed: 5, Parallelism: 1}, m, clients)
			if err != nil {
				t.Fatalf("NewSimulator: %v", err)
			}
			global, hist, err := sim.Run(context.Background())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(hist) != 2 {
				t.Fatalf("history = %d", len(hist))
			}
			for _, v := range global {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatal("non-finite global parameter")
				}
			}
			accs, err := fl.PersonalizeAll(context.Background(), 5, m, clients, global, 2)
			if err != nil {
				t.Fatalf("PersonalizeAll: %v", err)
			}
			for i, a := range accs {
				if a < 0 || a > 1 || math.IsNaN(a) {
					t.Fatalf("client %d accuracy = %v", i, a)
				}
			}
		})
	}
}

func TestFedAvgFTImprovesOverFedAvgOnSkewedClients(t *testing.T) {
	// Under 2-class non-IID clients, fine-tuning the head on local data
	// should beat evaluating the raw global model.
	clients := testClients(t, 6, 40)
	run := func(name string) float64 {
		m, err := Build(name, testCfg(), len(clients))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 3, Seed: 7}, m, clients)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		global, _, err := sim.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		accs, err := fl.PersonalizeAll(context.Background(), 7, m, clients, global, 2)
		if err != nil {
			t.Fatalf("PersonalizeAll: %v", err)
		}
		var mean float64
		for _, a := range accs {
			mean += a
		}
		return mean / float64(len(accs))
	}
	plain := run("fedavg")
	ft := run("fedavg-ft")
	if ft <= plain {
		t.Fatalf("FedAvg-FT (%v) should beat FedAvg (%v) under label skew", ft, plain)
	}
}

func TestScriptTrainerIsIdentity(t *testing.T) {
	clients := testClients(t, 2, 16)
	m, err := Build("script-fair", testCfg(), 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rng := rand.New(rand.NewSource(8))
	global, err := m.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	u, err := m.Trainer.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := range global {
		if u.Params[i] != global[i] {
			t.Fatal("script trainer must not modify the global vector")
		}
	}
}

func TestScaffoldControlVariatesEvolve(t *testing.T) {
	clients := testClients(t, 3, 24)
	cfg := testCfg()
	method := NewScaffold(cfg, len(clients))
	rng := rand.New(rand.NewSource(9))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	s := method.Trainer.(*scaffold)
	u, err := s.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if u.ControlDelta == nil {
		t.Fatal("scaffold update must carry a control delta")
	}
	var norm float64
	for _, v := range u.ControlDelta {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("control delta should be non-zero after training")
	}
	// Aggregating moves the server control.
	if _, err := method.Aggregator.Aggregate(global, []*fl.Update{u}); err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	ctl := s.agg.Control(len(global))
	var cnorm float64
	for _, v := range ctl {
		cnorm += v * v
	}
	if cnorm == 0 {
		t.Fatal("server control should move after aggregation")
	}
}

func TestPartialMethodsKeepPrivateHalfLocal(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	method := NewFedPer(cfg)
	rng := rand.New(rand.NewSource(10))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	p := method.Trainer.(*partial)
	u1, err := p.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Aggregate with the encoder mask: head positions must stay at the
	// previous global values.
	newGlobal, err := method.Aggregator.Aggregate(global, []*fl.Update{u1})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	ref := model.NewSupModel(rand.New(rand.NewSource(0)), cfg.Arch, cfg.NumClasses)
	headMask := ref.HeadMask()
	for i, isHead := range headMask {
		if isHead && newGlobal[i] != global[i] {
			t.Fatal("FedPer aggregation must not move head positions")
		}
	}
	changed := false
	for i, isHead := range headMask {
		if !isHead && newGlobal[i] != global[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("FedPer aggregation should move encoder positions")
	}
}

func TestLGFedAvgAggregatesHeadOnly(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	method := NewLGFedAvg(cfg)
	rng := rand.New(rand.NewSource(11))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	u, err := method.Trainer.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	newGlobal, err := method.Aggregator.Aggregate(global, []*fl.Update{u})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	ref := model.NewSupModel(rand.New(rand.NewSource(0)), cfg.Arch, cfg.NumClasses)
	for i, isEnc := range ref.EncoderMask() {
		if isEnc && newGlobal[i] != global[i] {
			t.Fatal("LG-FedAvg aggregation must not move encoder positions")
		}
	}
}

func TestFedBABUHeadFrozenDuringTraining(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	method := NewFedBABU(cfg)
	rng := rand.New(rand.NewSource(12))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	u, err := method.Trainer.Train(context.Background(), rng, clients[0], global, 0)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	ref := model.NewSupModel(rand.New(rand.NewSource(0)), cfg.Arch, cfg.NumClasses)
	for i, isEnc := range ref.EncoderMask() {
		if !isEnc && u.Params[i] != global[i] {
			t.Fatal("FedBABU must not train the head")
		}
	}
}

func TestDittoPersonalModelsPersist(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	method := NewDitto(cfg)
	d := method.Trainer.(*ditto)
	rng := rand.New(rand.NewSource(13))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	if _, err := d.Train(context.Background(), rng, clients[0], global, 0); err != nil {
		t.Fatalf("Train: %v", err)
	}
	d.mu.Lock()
	_, ok := d.personal[clients[0].ID]
	d.mu.Unlock()
	if !ok {
		t.Fatal("ditto must persist the personal model")
	}
	// Personal model should differ from the global model (it trained with
	// a proximal pull, not a copy).
	d.mu.Lock()
	v := append([]float64(nil), d.personal[clients[0].ID]...)
	d.mu.Unlock()
	same := true
	for i := range v {
		if v[i] != global[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("personal model should move away from global")
	}
}

func TestAPFLMixtureUsed(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	cfg.APFLAlpha = 0.5
	method := NewAPFL(cfg)
	a := method.Trainer.(*apfl)
	rng := rand.New(rand.NewSource(14))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	if _, err := a.Train(context.Background(), rng, clients[0], global, 0); err != nil {
		t.Fatalf("Train: %v", err)
	}
	a.mu.Lock()
	_, ok := a.personal[clients[0].ID]
	a.mu.Unlock()
	if !ok {
		t.Fatal("apfl must persist the personal branch")
	}
	// Out-of-range alpha falls back to 0.5.
	bad := testCfg()
	bad.APFLAlpha = 7
	m2 := NewAPFL(bad)
	if m2.Trainer.(*apfl).alpha != 0.5 {
		t.Fatal("alpha out of range should default to 0.5")
	}
}

func TestFedEMAMergesDivergenceAware(t *testing.T) {
	clients := testClients(t, 2, 24)
	cfg := testCfg()
	method := NewFedEMA(cfg)
	f := method.Trainer.(*fedEMA)
	rng := rand.New(rand.NewSource(15))
	global, err := method.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	// Round 0: client adopts global.
	if _, err := f.Train(context.Background(), rng, clients[0], global, 0); err != nil {
		t.Fatalf("Train r0: %v", err)
	}
	st, _ := f.states.Peek(clients[0].ID)
	localAfterR0 := nn.Flatten(st)
	// Round 1 with a very different global: the merged start point must lie
	// strictly between local and the new global.
	shifted := make([]float64, len(global))
	for i := range shifted {
		shifted[i] = localAfterR0[i] + 1
	}
	u, err := f.Train(context.Background(), rng, clients[0], shifted, 1)
	if err != nil {
		t.Fatalf("Train r1: %v", err)
	}
	if u.NumSamples <= clients[0].Train.Len() {
		t.Fatal("FedEMA should train on the unlabeled pool too")
	}
}

func TestScriptConvergentTrainsLongerThanFair(t *testing.T) {
	cfg := testCfg()
	fair := NewScriptFair(cfg).Trainer.(*script)
	conv := NewScriptConvergent(cfg).Trainer.(*script)
	if conv.epochs <= fair.epochs {
		t.Fatalf("convergent epochs %d should exceed fair %d", conv.epochs, fair.epochs)
	}
	zero := cfg
	zero.ScriptEpochs = 0
	if NewScriptConvergent(zero).Trainer.(*script).epochs != 80 {
		t.Fatal("ScriptEpochs=0 should default to 80")
	}
}

func TestNovelClientPersonalization(t *testing.T) {
	// Clients never seen during training must still personalize for the
	// stateful methods.
	clients := testClients(t, 4, 24)
	trainClients := clients[:2]
	novel := clients[2:]
	for _, name := range []string{"fedper", "fedrep", "lg-fedavg", "apfl", "ditto", "fedema"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := Build(name, testCfg(), len(clients))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 2, ClientsPerRound: 2, Seed: 16}, m, trainClients)
			if err != nil {
				t.Fatalf("NewSimulator: %v", err)
			}
			global, _, err := sim.Run(context.Background())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			accs, err := fl.PersonalizeAll(context.Background(), 16, m, novel, global, 1)
			if err != nil {
				t.Fatalf("PersonalizeAll on novel clients: %v", err)
			}
			for _, a := range accs {
				if a < 0 || a > 1 || math.IsNaN(a) {
					t.Fatalf("novel accuracy = %v", a)
				}
			}
		})
	}
}

// TestRegistryResumeClassification pins every registered method's
// statefulness declaration: methods that accumulate cross-round state
// beyond the global vector (merged local models, private parameter
// halves, control variates, personal vectors) must report as
// non-resumable so checkpoint resume refuses them instead of silently
// diverging. Adding a method to the registry forces a classification
// decision here.
func TestRegistryResumeClassification(t *testing.T) {
	stateful := map[string]bool{
		"fedema":      true, // local model EMA-merged, not overwritten
		"fedper":      true, // private head persists in memory
		"fedrep":      true,
		"fedbabu":     true,
		"lg-fedavg":   true, // private encoder persists in memory
		"scaffold":    true, // client + server control variates
		"scaffold-ft": true,
		"apfl":        true, // personal vectors read at personalization
		"ditto":       true,
		// SSL momentum flavors: EMA target network (byol), momentum key
		// encoder + queue (mocov2) — method-local, never federated.
		"pfl-byol":       true,
		"calibre-byol":   true,
		"pfl-mocov2":     true,
		"calibre-mocov2": true,
	}
	cfg := testCfg()
	for name, build := range Registry() {
		m, err := build(cfg, 8)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		if got, want := !fl.Resumable(m), stateful[name]; got != want {
			t.Errorf("%s: carries round state = %v, want %v", name, got, want)
		}
	}
}

// loadMasked refuses a vector or a mask that does not cover the model
// exactly (a long vector used to be accepted, a short mask to panic) and
// otherwise writes exactly the masked positions.
func TestLoadMasked(t *testing.T) {
	m := model.NewSupModel(rand.New(rand.NewSource(31)), testArch(), 10)
	n := nn.ParamCount(m)
	before := nn.Flatten(m)
	for _, tc := range []struct {
		name      string
		vec, mask int
		ok        bool
	}{
		{"short vector", n - 1, n, false},
		{"long vector", n + 1, n, false},
		{"short mask", n, n - 1, false},
		{"long mask", n, n + 1, false},
		{"nothing", 0, 0, false},
		{"exact", n, n, true},
	} {
		vec := make([]float64, tc.vec)
		for i := range vec {
			vec[i] = float64(i) + 0.5
		}
		mask := make([]bool, tc.mask)
		for i := range mask {
			mask[i] = i%3 == 0
		}
		err := loadMasked(m, vec, mask)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
		for i, v := range nn.Flatten(m) {
			want := before[i]
			if tc.ok && mask[i] {
				want = vec[i]
			}
			if v != want {
				t.Fatalf("%s: parameter %d = %v, want %v", tc.name, i, v, want)
			}
		}
	}
}
