package fl

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/param"
	"calibre/internal/partition"
)

// TestMaliciousDeterministic pins the compromised-set trace: a pure
// function of (seed, n, Frac), sorted, at least one client when Frac > 0,
// the whole population at Frac = 1.
func TestMaliciousDeterministic(t *testing.T) {
	a := &Adversary{Kind: AdvSignFlip, Frac: 0.3}
	got := a.Malicious(7, 10)
	if len(got) != 3 {
		t.Fatalf("frac=0.3 of 10: %v", got)
	}
	if !reflect.DeepEqual(got, a.Malicious(7, 10)) {
		t.Fatal("Malicious must be deterministic per seed")
	}
	if reflect.DeepEqual(got, a.Malicious(8, 10)) {
		t.Fatal("different seeds should compromise different clients")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	tiny := &Adversary{Kind: AdvNoise, Frac: 0.01}
	if ids := tiny.Malicious(1, 10); len(ids) != 1 {
		t.Fatalf("frac>0 must compromise at least one client: %v", ids)
	}
	all := &Adversary{Kind: AdvNoise, Frac: 1}
	if ids := all.Malicious(1, 5); len(ids) != 5 {
		t.Fatalf("frac=1 must compromise everyone: %v", ids)
	}
	var nilAdv *Adversary
	if ids := nilAdv.Malicious(1, 10); ids != nil {
		t.Fatalf("nil adversary: %v", ids)
	}
	none := &Adversary{Kind: AdvNoise, Frac: 0}
	if ids := none.Malicious(1, 10); ids != nil {
		t.Fatalf("frac=0: %v", ids)
	}
}

// TestWrapTrainerHonestPassThrough: a nil or zero-fraction adversary leaves
// the trainer untouched, and honest clients of a hostile wrapper train
// through the inner trainer unchanged.
func TestWrapTrainerHonestPassThrough(t *testing.T) {
	inner := &fakeTrainer{}
	var nilAdv *Adversary
	if got := nilAdv.WrapTrainer(inner, 1, 10); got != Trainer(inner) {
		t.Fatal("nil adversary must return the inner trainer")
	}
	zero := &Adversary{Kind: AdvSignFlip, Frac: 0}
	if got := zero.WrapTrainer(inner, 1, 10); got != Trainer(inner) {
		t.Fatal("frac=0 must return the inner trainer")
	}

	clients := testClients(t, 4)
	a := &Adversary{Kind: AdvSignFlip, Frac: 0.25}
	mal := a.Malicious(3, len(clients))
	wrapped := a.WrapTrainer(inner, 3, len(clients))
	global := param.Vector{1, 2, 3, 4}
	for _, c := range clients {
		if c.ID == mal[0] {
			continue
		}
		u, err := wrapped.Train(context.Background(), rand.New(rand.NewSource(1)), c, global, 0)
		if err != nil {
			t.Fatalf("honest train: %v", err)
		}
		for i := range u.Params {
			if u.Params[i] != global[i]+1 {
				t.Fatalf("honest client %d perturbed: %v", c.ID, u.Params)
			}
		}
	}
}

// TestSignFlipReflectsUpdate pins the reflection: the shipped vector is
// global − s·(honest − global).
func TestSignFlipReflectsUpdate(t *testing.T) {
	clients := testClients(t, 2)
	a := &Adversary{Kind: AdvSignFlip, Scale: 3, Frac: 1}
	wrapped := a.WrapTrainer(&fakeTrainer{}, 5, len(clients))
	global := param.Vector{1, -2, 0.5}
	u, err := wrapped.Train(context.Background(), rand.New(rand.NewSource(1)), clients[0], global, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// fakeTrainer's honest update is global+1, so the reflection is global−3.
	for i := range u.Params {
		if math.Abs(u.Params[i]-(global[i]-3)) > 1e-12 {
			t.Fatalf("sign-flip params = %v, want global-3", u.Params)
		}
	}
	if u.ControlDelta != nil {
		t.Fatal("sign-flip must clear the control delta")
	}
}

// lendingTrainer is fakeTrainer that, when lent is set, ships its update in
// a vector it borrowed from param's pool, Lent; last is the payload it
// shipped.
type lendingTrainer struct {
	fakeTrainer
	lent bool
	last param.Vector
}

func (l *lendingTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	u, err := l.fakeTrainer.Train(ctx, rng, c, global, round)
	if err != nil {
		return nil, err
	}
	if l.lent {
		p := param.Borrow(len(u.Params))
		copy(p, u.Params)
		u.Params, u.Lent = p, true
	}
	l.last = u.Params
	return u, nil
}

// TestAdversaryPayloadsLent: every payload an attack ships is a vector it
// borrowed from param's pool, Lent, for the round to give back. Sign-flip
// gives back the honest payload it replaces when that was Lent, and leaves
// one that was not — a client model's own values — to its trainer.
func TestAdversaryPayloadsLent(t *testing.T) {
	clients := testClients(t, 2)
	global := param.Vector{1, -2, 0.5}
	for _, kind := range []AdversaryKind{AdvSignFlip, AdvNoise, AdvCollude} {
		for _, honestLent := range []bool{false, true} {
			inner := &lendingTrainer{lent: honestLent}
			a := &Adversary{Kind: kind, Frac: 1}
			u, err := a.WrapTrainer(inner, 5, len(clients)).Train(context.Background(), rand.New(rand.NewSource(1)), clients[0], global, 2)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if !u.Lent || len(u.Params) != len(global) {
				t.Fatalf("%s over a Lent=%v update shipped %d params, Lent=%v: want a Lent vector of %d", kind, honestLent, len(u.Params), u.Lent, len(global))
			}
			if inner.last != nil {
				if &inner.last[0] == &u.Params[0] {
					t.Fatalf("%s shipped the honest payload's own vector", kind)
				}
				if param.IsIdle(inner.last) != honestLent {
					t.Errorf("%s over a Lent=%v update: the honest payload back in the pool = %v, want %v", kind, honestLent, !honestLent, honestLent)
				}
			}
			u.GiveBack()
		}
	}
}

// TestNoiseAndColludeDeterministic: hostile payloads are pure functions of
// (seed, round, client); colluders ship the identical vector within a round
// and fresh ones across rounds, without ever invoking the inner trainer.
func TestNoiseAndColludeDeterministic(t *testing.T) {
	clients := testClients(t, 4)
	global := param.Vector{0, 0, 0}
	train := func(a *Adversary, c int, round int) param.Vector {
		inner := &fakeTrainer{}
		u, err := a.WrapTrainer(inner, 11, len(clients)).Train(context.Background(), rand.New(rand.NewSource(9)), clients[c], global, round)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		if inner.calls.Load() != 0 {
			t.Fatal("fabricated attacks must not run local training")
		}
		return u.Params
	}
	noise := &Adversary{Kind: AdvNoise, Scale: 0.5, Frac: 1}
	if !reflect.DeepEqual(train(noise, 0, 1), train(noise, 0, 1)) {
		t.Fatal("noise payload must be deterministic")
	}
	if reflect.DeepEqual(train(noise, 0, 1), train(noise, 1, 1)) {
		t.Fatal("noise clients must not collude")
	}
	collude := &Adversary{Kind: AdvCollude, Frac: 1}
	if !reflect.DeepEqual(train(collude, 0, 1), train(collude, 1, 1)) {
		t.Fatal("colluders must ship the identical round vector")
	}
	if reflect.DeepEqual(train(collude, 0, 1), train(collude, 0, 2)) {
		t.Fatal("collusion vector must change across rounds")
	}
}

// TestLabelFlipSharesFeaturesCopiesLabels pins the label-flip transform:
// y → NumClasses−1−y on a fresh label slice, features shared, unlabeled
// markers preserved, memoized per client.
func TestLabelFlipSharesFeaturesCopiesLabels(t *testing.T) {
	clients := testClients(t, 2)
	c := clients[0]
	c.Train.Y[0] = -1 // plant an unlabeled marker
	at := &adversaryTrainer{cfg: Adversary{Kind: AdvLabelFlip, Frac: 1}}
	fc := at.flipClient(c)
	if fc == c || fc.Train == c.Train {
		t.Fatal("flipClient must not alias the original dataset")
	}
	if &fc.Train.X[0][0] != &c.Train.X[0][0] {
		t.Fatal("features must be shared, not copied")
	}
	for i, y := range c.Train.Y {
		want := y
		if y >= 0 && y < c.Train.NumClasses {
			want = c.Train.NumClasses - 1 - y
		}
		if fc.Train.Y[i] != want {
			t.Fatalf("label %d: got %d want %d (orig %d)", i, fc.Train.Y[i], want, y)
		}
	}
	if at.flipClient(c) != fc {
		t.Fatal("flipClient must memoize")
	}
}

// TestParseAdversaryRoundTrip: Parse∘String is the identity on canonical
// specs, the empty string means no adversary, malformed specs are typed
// errors.
func TestParseAdversaryRoundTrip(t *testing.T) {
	for _, spec := range []string{"sign-flip", "sign-flip(3)", "noise(0.5)", "collude", "collude(2)", "label-flip"} {
		a, err := ParseAdversary(spec)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", spec, err)
		}
		if got := a.String(); got != spec {
			t.Errorf("ParseAdversary(%q).String() = %q", spec, got)
		}
	}
	if a, err := ParseAdversary(""); a != nil || err != nil {
		t.Errorf("empty spec: %v, %v", a, err)
	}
	// The spec grammar's spellings: spaces around arguments, and name()
	// for name.
	for spec, want := range map[string]string{"noise()": "noise", "sign-flip( 3)": "sign-flip(3)", " collude ( 2 ) ": "collude(2)"} {
		if a, err := ParseAdversary(spec); err != nil || a.String() != want {
			t.Errorf("ParseAdversary(%q) = %v, %v; want %s", spec, a, err, want)
		}
	}
	for _, bad := range []string{"sign-flip(0)", "sign-flip(-1)", "sign-flip(x)", "sign-flip(", "gradient-ascent", "label-flip(2)", "noise(1,2)", "noise((1))"} {
		if _, err := ParseAdversary(bad); err == nil {
			t.Errorf("ParseAdversary(%q) accepted", bad)
		}
	}
}

// TestAdversaryValidate covers the config bounds.
func TestAdversaryValidate(t *testing.T) {
	var nilAdv *Adversary
	if err := nilAdv.Validate(); err != nil {
		t.Fatalf("nil adversary: %v", err)
	}
	bad := []Adversary{
		{Kind: "ddos", Frac: 0.5},
		{Kind: AdvNoise, Scale: -1, Frac: 0.5},
		{Kind: AdvNoise, Scale: math.Inf(1), Frac: 0.5},
		{Kind: AdvNoise, Frac: -0.1},
		{Kind: AdvNoise, Frac: 1.1},
		{Kind: AdvNoise, Frac: math.NaN()},
	}
	for _, a := range bad {
		a := a
		if err := a.Validate(); err == nil {
			t.Errorf("%+v accepted", a)
		}
	}
}

// hostileConfig stresses every hostile path at once: a robust aggregator, a
// markov availability trace and colluding adversaries, on top of quorum
// refill and population eviction.
func hostileConfig(rounds int) SimConfig {
	return SimConfig{
		Rounds:          rounds,
		ClientsPerRound: 5,
		Seed:            77,
		Quorum:          4,
		Straggler:       StragglerDrop,
		Trace:           &TraceConfig{Kind: TraceMarkov, Base: 0.1, PDown: 0.3, PUp: 0.5},
		Adversary:       &Adversary{Kind: AdvCollude, Scale: 2, Frac: 0.3},
	}
}

// hostileRun executes one hostile simulation over a krum aggregator.
func hostileRun(t *testing.T, cfg SimConfig) ([]float64, []RoundStats) {
	t.Helper()
	m := fakeMethod(&fakeTrainer{})
	m.Aggregator = Krum{F: 1}
	sim, err := NewSimulator(cfg, m, testClients(t, 6))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, history, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return global, history
}

// TestHostileSimulationDeterministic: two hostile runs from the same seed
// are bit-identical, and the attack actually registers in the accounting.
func TestHostileSimulationDeterministic(t *testing.T) {
	g1, h1 := hostileRun(t, hostileConfig(6))
	g2, h2 := hostileRun(t, hostileConfig(6))
	for i := range g1 {
		if math.Float64bits(g1[i]) != math.Float64bits(g2[i]) {
			t.Fatalf("hostile run not deterministic at %d", i)
		}
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("histories differ:\n%+v\nvs\n%+v", h1, h2)
	}
	adversarial, rejected := 0, 0
	for _, h := range h1 {
		adversarial += h.AdversarialUpdates
		rejected += h.RejectedUpdates
	}
	if adversarial == 0 {
		t.Fatal("frac=0.3 over 6 rounds should land adversarial updates")
	}
	if rejected == 0 {
		t.Fatal("krum must reject all but one update per round")
	}
}

// TestHostileResumeBitIdentical extends the simulator's determinism gate to
// hostile runs: checkpoint a traced, attacked federation mid-run, resume it
// in a fresh simulator, and the outcome must be bit-identical to a run that
// never stopped — adversarial and rejection accounting included.
func TestHostileResumeBitIdentical(t *testing.T) {
	const total, cut = 6, 3
	refGlobal, refHistory := hostileRun(t, hostileConfig(total))

	var at *SimState
	cfgA := hostileConfig(cut)
	cfgA.OnCheckpoint = func(st *SimState) error { at = st; return nil }
	hostileRun(t, cfgA)
	if at == nil || at.Round != cut {
		t.Fatalf("no terminal checkpoint at round %d: %+v", cut, at)
	}

	cfgB := hostileConfig(total)
	cfgB.ResumeFrom = at
	gotGlobal, gotHistory := hostileRun(t, cfgB)

	for i := range gotGlobal {
		if math.Float64bits(gotGlobal[i]) != math.Float64bits(refGlobal[i]) {
			t.Fatalf("global[%d] differs after hostile resume", i)
		}
	}
	if !reflect.DeepEqual(gotHistory, refHistory) {
		t.Fatalf("history differs after hostile resume:\n%+v\nvs\n%+v", gotHistory, refHistory)
	}
}
