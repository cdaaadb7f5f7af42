package baselines

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"calibre/internal/fl"
	"calibre/internal/model"
	"calibre/internal/nn"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/tensor"
)

// The trainers of this package return as the update's payload either their
// client model's own value vector, which the client's next update
// overwrites, or — the stateless methods — a vector borrowed from param's
// pool for the update (fl.Update.Lent), which the round gives back for any
// later borrower once it has closed: either way the payload is lent until
// the round closes (fl.Trainer). So is the vector an adversary puts in its
// place, borrowed too. witness holds a federation to that contract from both
// ends: it wraps the trainer the round calls — the adversary's, when there is
// one — to copy every payload the moment Train returns, and the aggregator to
// compare each lent vector with its copy when the round closes — after the
// transport and the sink have had it, and while the round's other trainers
// borrow from the pool — and to check that no global the round engine hands
// out is a client's live storage. The globals come from the same pool, so a
// global may sit in an array a closed round's Lent payload was in.
type witness struct {
	t *testing.T

	mu      sync.Mutex
	lent    map[int]lentPayload       // this round's payloads, by client
	storage map[int][]float64         // each client's last payload vector
	arrays  map[*float64]bool         // every payload's array
	pooled  map[*float64]param.Vector // the Lent payloads', by array
	reused  int                       // payloads in an array an earlier payload was in
	closes  int
	vectors int          // Lent vectors per update: 2 with SCAFFOLD's control delta
	global  param.Vector // the last global a round trained on
}

func newWitness(t *testing.T) *witness {
	return &witness{t: t, lent: map[int]lentPayload{}, storage: map[int][]float64{},
		arrays: map[*float64]bool{}, pooled: map[*float64]param.Vector{}}
}

type lentPayload struct {
	vector, atReturn []float64
	pooled           bool // Lent: borrowed from param's pool
}

func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	lo := func(v []float64) uintptr { return uintptr(unsafe.Pointer(&v[0])) }
	return lo(a) < lo(b)+8*uintptr(len(b)) && lo(b) < lo(a)+8*uintptr(len(a))
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// wrap puts the witness around m's trainer and aggregator, keeping a
// streaming aggregator streaming.
func (w *witness) wrap(m *fl.Method) *fl.Method {
	wrapped := *m
	wrapped.Trainer = witnessTrainer{w, m.Trainer}
	if s, ok := m.Aggregator.(fl.StreamingAggregator); ok {
		wrapped.Aggregator = witnessStreaming{witnessAggregator{w, m.Aggregator}, s}
	} else {
		wrapped.Aggregator = witnessAggregator{w, m.Aggregator}
	}
	return &wrapped
}

// notAClient fails if global is (part of) a vector a client holds: its own
// storage, or a Lent payload of the round not yet closed. A closed round's
// Lent payloads are back in param's pool, which lends the globals too.
func (w *witness) notAClient(global param.Vector, what string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, v := range w.storage {
		_, pooled := w.pooled[&v[0]]
		if _, lentNow := w.lent[id]; pooled && !lentNow {
			continue
		}
		if overlap(global, v) {
			w.t.Errorf("%s is client %d's own vector", what, id)
		}
	}
}

// roundCloses compares every payload lent this round with its copy, checks
// that no Lent one is back in param's pool yet — the round gives them back
// after its sink has finished — and that the aggregate next is not a
// client's.
func (w *witness) roundCloses(next param.Vector) {
	w.notAClient(next, "the aggregate")
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, p := range w.lent {
		if !bitsEqual(p.vector, p.atReturn) {
			w.t.Errorf("client %d's payload changed between Train's return and the round's close", id)
		}
		if p.pooled && param.IsIdle(p.vector) {
			w.t.Errorf("client %d's Lent payload was given back before the round closed", id)
		}
	}
	clear(w.lent)
	w.closes++
}

type witnessTrainer struct {
	w     *witness
	inner fl.Trainer
}

func (t witnessTrainer) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	t.w.notAClient(global, "the global a round trains on")
	u, err := t.inner.Train(ctx, rng, client, global, round)
	if err != nil {
		return nil, err
	}
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	t.w.global = global
	array := &u.Params[0]
	if t.w.arrays[array] {
		t.w.reused++
	}
	t.w.arrays[array] = true
	if u.Lent {
		t.w.pooled[array] = u.Params
		t.w.vectors = 1
		if u.ControlDelta != nil {
			t.w.pooled[&u.ControlDelta[0]] = u.ControlDelta
			t.w.vectors = 2
		}
	}
	t.w.storage[client.ID] = u.Params
	t.w.lent[client.ID] = lentPayload{u.Params, u.Params.Clone(), u.Lent}
	return u, nil
}

type witnessAggregator struct {
	w     *witness
	inner fl.Aggregator
}

func (a witnessAggregator) Aggregate(global param.Vector, updates []*fl.Update) (param.Vector, error) {
	next, err := a.inner.Aggregate(global, updates)
	a.w.roundCloses(next)
	return next, err
}

type witnessStreaming struct {
	witnessAggregator
	stream fl.StreamingAggregator
}

func (a witnessStreaming) NewSink(global param.Vector) fl.UpdateSink {
	return witnessSink{a.w, a.stream.NewSink(global)}
}

type witnessSink struct {
	w *witness
	fl.UpdateSink
}

func (s witnessSink) Finish() (param.Vector, error) {
	next, err := s.UpdateSink.Finish()
	s.w.roundCloses(next)
	return next, err
}

// TestLentPayloadSurvivesTheRound runs witnessed federations, on several
// client goroutines (the suite runs under -race), over everything that sits
// between Train's return and the round's close: a streaming sink, a
// buffering one, the robust aggregators, every adversary kind around the
// trainer, SCAFFOLD's second payload. The payload arrays are reused — a
// client's row, or param's pool — so a payload written before its round
// closed would show. The pool's are all back in it after the run, and number
// at most what the run holds at once — the round's payloads until it closes
// (SCAFFOLD's two vectors an update), the gradients and velocity of each
// running trainer, and the round's global and the aggregate that supersedes
// it, which all share the pool — fewer than the clients a run of a stateless
// method trains, each of which kept a model of its own before.
func TestLentPayloadSurvivesTheRound(t *testing.T) {
	clients := testClients(t, 24, 24)
	type testCase struct {
		name   string
		method string
		agg    fl.Aggregator // replaces the method's when non-nil
		adv    *fl.Adversary
	}
	cases := []testCase{
		{name: "streaming sink (WeightedAverage)", method: "fedavg"},
		{name: "buffering sink (DivergenceWeighted)", method: "calibre-simclr"},
		{name: "masked average, private heads", method: "fedper"},
		{name: "control variates", method: "scaffold"},
		{name: "ema merge into the lent vector", method: "fedema"},
		{name: "personal branch beside the lent vector", method: "apfl"},
		{name: "median", method: "fedavg", agg: fl.CoordinateMedian{}},
		{name: "trimmed mean", method: "fedavg", agg: fl.TrimmedMean{Frac: 0.25}},
		{name: "krum", method: "fedavg", agg: fl.Krum{F: 1}},
	}
	for _, kind := range []fl.AdversaryKind{fl.AdvSignFlip, fl.AdvNoise, fl.AdvCollude, fl.AdvLabelFlip} {
		cases = append(cases, testCase{name: "adversary " + string(kind), method: "fedavg", adv: &fl.Adversary{Kind: kind, Frac: 0.5}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Build(tc.method, testCfg(), len(clients))
			if err != nil {
				t.Fatal(err)
			}
			if tc.agg != nil {
				m.Aggregator = tc.agg
			}
			cfg := fl.SimConfig{Rounds: 6, ClientsPerRound: 4, Seed: 17, Parallelism: 2}
			// The witness goes around the adversary, to see the payloads the
			// round is handed.
			m.Trainer = tc.adv.WrapTrainer(m.Trainer, cfg.Seed, len(clients))
			w := newWitness(t)
			sim, err := fl.NewSimulator(cfg, w.wrap(m), clients)
			if err != nil {
				t.Fatal(err)
			}
			global, _, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			w.notAClient(global, "the final global")
			if w.closes != cfg.Rounds {
				t.Fatalf("the witness saw %d rounds close, the run had %d", w.closes, cfg.Rounds)
			}
			if w.reused == 0 {
				t.Fatal("no payload array carried two payloads: nothing could overwrite one and the test shows nothing")
			}
			if len(w.pooled) == 0 {
				return
			}
			bound := w.vectors*cfg.ClientsPerRound + 2*cfg.Parallelism + 2
			t.Logf("%d clients trained, their Lent payloads in %d arrays", len(w.storage), len(w.pooled))
			if len(w.storage) <= bound {
				t.Fatalf("the run trained %d clients, not more than the %d arrays its Lent payloads may come in: it shows nothing", len(w.storage), bound)
			}
			if len(w.pooled) > bound {
				t.Errorf("Lent payloads came in %d distinct arrays, want at most %d", len(w.pooled), bound)
			}
			for _, v := range w.pooled {
				// The round loop hands the final global to the caller and leaves
				// the last one it superseded to the GC, arrays the pool may have
				// lent a payload before.
				if overlap(v, global) || overlap(v, w.global) {
					continue
				}
				if !param.IsIdle(v) {
					t.Errorf("a Lent payload array is not back in param's pool")
				}
			}
		})
	}
}

// TestPartialSharingKeepsThePrivateHalf: fedper's update is the whole client
// model, lent; the round engine aggregates its encoder and must leave its
// head alone. A client's head at the start of a round is, bit for bit, the
// head it ended its last round on.
func TestPartialSharingKeepsThePrivateHalf(t *testing.T) {
	clients := testClients(t, 4, 24)
	m, err := Build("fedper", testCfg(), len(clients))
	if err != nil {
		t.Fatal(err)
	}
	p := m.Trainer.(*partial)
	headLen := nn.LinearSize(p.cfg.Arch.FeatDim, p.cfg.NumClasses)
	var mu sync.Mutex
	heads := map[int][]float64{}
	kept := 0
	wrapped := *m
	wrapped.Trainer = trainerFunc(func(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
		if row, known := p.clients.Peek(client.ID); known {
			mu.Lock()
			if !bitsEqual(row[len(row)-headLen:], heads[client.ID]) {
				t.Errorf("round %d: client %d's private head is not the one its last round ended on", round, client.ID)
			}
			kept++
			mu.Unlock()
		}
		u, err := p.Train(ctx, rng, client, global, round)
		if err == nil {
			mu.Lock()
			heads[client.ID] = append([]float64(nil), u.Params[len(u.Params)-headLen:]...)
			mu.Unlock()
		}
		return u, err
	})
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 19, Parallelism: 2}, &wrapped, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if kept != 3*len(clients) {
		t.Fatalf("checked %d returning clients, want %d", kept, 3*len(clients))
	}
}

type trainerFunc func(context.Context, *rand.Rand, *partition.Client, param.Vector, int) (*fl.Update, error)

func (f trainerFunc) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	return f(ctx, rng, client, global, round)
}

// TestWarmedRoundAllocatesLessThanHalfAParameterVector: once what a round
// borrows is warm, a simulator round of fedavg allocates small change and
// nothing model-sized — no per-client copy of the global going in, of the
// update coming out or of the optimizer's velocity, and no fresh vector for
// the sink's accumulator, the next global, which comes from param's pool
// like the rest — so the bytes a round allocates do not grow with the
// number of clients it trains.
func TestWarmedRoundAllocatesLessThanHalfAParameterVector(t *testing.T) {
	clients := testClients(t, 8, 24)
	cfg := testCfg()
	cfg.Arch.HiddenDim, cfg.Arch.FeatDim = 256, 64 // a vector that dwarfs a round's bookkeeping
	vector := uint64(8 * nn.ParamCount(newSupBase(cfg).newModel(rand.New(rand.NewSource(0)))))
	for _, perRound := range []int{2, 8} {
		m := NewFedAvg(cfg)
		var marks []uint64
		sim, err := fl.NewSimulator(fl.SimConfig{
			Rounds: 7, ClientsPerRound: perRound, Seed: 23, Parallelism: 2,
			OnRound: func(fl.RoundStats) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				marks = append(marks, ms.TotalAlloc)
			},
		}, m, clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// A late round may still be the first whose two updates overlap and
		// build the method's second model: the cheapest of the last rounds is
		// a warmed one.
		least := uint64(math.MaxUint64)
		for i := 3; i < len(marks); i++ {
			least = min(least, marks[i]-marks[i-1])
		}
		t.Logf("%d clients a round: a warmed round allocates %d bytes, a parameter vector is %d", perRound, least, vector)
		if least >= vector/2 {
			t.Errorf("%d clients a round: a warmed round allocates %d bytes, half a parameter vector is %d", perRound, least, vector/2)
		}
	}
}

// TestNewClientsTrainInBorrowedStepBuffers: a stateless client's model, step
// buffers and gradients are borrowed for its local update, not kept per
// client, so once what two running trainers hold is warm, a round after the
// first that meets clients never trained before allocates less than half a
// model beyond a warmed round, whatever the number of new clients — with a
// model kept per client it allocated their models (a values vector each),
// with a tape kept per client model one step arena, larger still, per new
// client.
func TestNewClientsTrainInBorrowedStepBuffers(t *testing.T) {
	clients := testClients(t, 8, 24)
	cfg := testCfg()
	cfg.Arch.HiddenDim, cfg.Arch.FeatDim = 256, 64 // a step arena that dwarfs a round's bookkeeping
	var vector uint64
	modelBytes := allocatedBytes(func() { vector = uint64(8 * nn.ParamCount(newSupBase(cfg).newModel(rand.New(rand.NewSource(1))))) })
	if modelBytes >= vector+vector/10 {
		t.Fatalf("a model allocates %d bytes, its values vector is %d: it keeps more than its values", modelBytes, vector)
	}
	arenaBytes := stepArenaBytes(cfg, cfg.Train.BatchSize)
	// The arena holds activations and their gradients, batch rows each: the
	// weight gradients are written where they are kept. With a scratch buffer
	// per weight gradient it held more than the model (335,592 bytes against
	// 179,184).
	if arenaBytes >= modelBytes {
		t.Errorf("a step arena holds %d bytes, a model's values %d: the step keeps weight-shaped scratch", arenaBytes, modelBytes)
	}

	// At Parallelism 2 two local updates run at once. Warm what two
	// overlapping updates hold — two lent models and their values, two tapes,
	// two gradient vectors and two velocities — so that what the rounds meet
	// does not depend on how closely the first round's two overlapped. From
	// round 1 on the round core holds two vectors of the same pool besides:
	// the round's global and the aggregate that will supersede it.
	m := NewFedAvg(cfg)
	f := m.Trainer.(*fedAvg)
	rng := rand.New(rand.NewSource(5))
	global, err := m.InitGlobal(rng)
	if err != nil {
		t.Fatal(err)
	}
	a, va, err := f.lendGlobal(global)
	if err != nil {
		t.Fatal(err)
	}
	b, vb, err := f.lendGlobal(global)
	if err != nil {
		t.Fatal(err)
	}
	held := nn.BorrowTape()
	held.LendGrads(a)
	opt := nn.NewSGD(a, 0, 0.9, 0)
	opt.Step()
	warmUp := func(m *model.SupModel, c *partition.Client) {
		if _, err := model.TrainSupervised(rng, m, c.Train, cfg.Train); err != nil {
			t.Fatal(err)
		}
	}
	warmUp(b, clients[0])
	held.Release()
	opt.Release()
	warmUp(a, clients[1]) // on the tape held until now
	f.spares.Give(a)
	f.spares.Give(b)
	param.GiveBack(va)
	param.GiveBack(vb)
	peak := make([]param.Vector, 8) // values, gradients, velocities, globals
	for i := range peak {
		peak[i] = param.Borrow(len(va))
	}
	for _, v := range peak {
		param.GiveBack(v)
	}

	var mu sync.Mutex
	met := map[int]bool{}
	var marks []uint64
	newIn := map[int]int{} // round → clients it trained for the first time
	wrapped := *m
	wrapped.Trainer = trainerFunc(func(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
		mu.Lock()
		if !met[client.ID] {
			met[client.ID] = true
			newIn[round]++
		}
		mu.Unlock()
		return m.Trainer.Train(ctx, rng, client, global, round)
	})
	sim, err := fl.NewSimulator(fl.SimConfig{
		Rounds: 10, ClientsPerRound: 2, Seed: 23, Parallelism: 2,
		OnRound: func(fl.RoundStats) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			marks = append(marks, ms.TotalAlloc)
		},
	}, &wrapped, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	warmed := uint64(math.MaxUint64)
	for r := 1; r < len(marks); r++ {
		if newIn[r] == 0 {
			warmed = min(warmed, marks[r]-marks[r-1])
		}
	}
	checked := 0
	for r := 1; r < len(marks); r++ {
		if newIn[r] == 0 || warmed == math.MaxUint64 {
			continue
		}
		checked++
		got := marks[r] - marks[r-1]
		t.Logf("round %d: %d new clients, %d bytes (warmed round %d, a model %d, a step arena %d)", r, newIn[r], got, warmed, modelBytes, arenaBytes)
		if got >= warmed+modelBytes/2 {
			t.Errorf("round %d met %d new clients and allocated %d bytes: a warmed round's %d and %d more, a model is %d",
				r, newIn[r], got, warmed, got-warmed, modelBytes)
		}
	}
	if checked == 0 {
		t.Fatalf("no round after the first both met a new client and had a warmed round to compare with (new clients per round: %v)", newIn)
	}
}

// allocatedBytes is what fn allocates on the heap.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// stepArenaBytes is what a supervised step of cfg's model at batch rows
// allocates on a tape that never served, beyond what the same step allocates
// on it once warm: the step buffers a local update fills. The step runs as
// a trainer's does, through nn.StepLoop, which clears the gradients and so
// lets each weight's gradient be written where it is kept.
func stepArenaBytes(cfg Config, batch int) uint64 {
	m := newSupBase(cfg).newModel(rand.New(rand.NewSource(2)))
	tape := nn.NewTape(tensor.NewArena())
	x, y := tensor.RandN(rand.New(rand.NewSource(3)), 1, batch, cfg.Arch.InputDim), make([]int, batch)
	loop := nn.StepLoop{
		Tape: tape,
		Opt:  nn.NewSGD(m, 0, 0, 0), // gradient storage of its own, for a step outside a local update
		Loss: func() (*nn.Node, error) { return nn.CrossEntropy(m.ForwardOn(tape, x), y), nil },
	}
	loop.Grads = nn.Grads(m)
	step := func() {
		if _, err := loop.Run(1); err != nil {
			panic(err)
		}
	}
	cold := allocatedBytes(step)
	return cold - allocatedBytes(step)
}

// TestSupervisedResidency: after a federation, fedavg's trainer holds no
// client rows and no more models than updates ran at once; ditto's holds
// one row — a personal model — per client it trained, and still no model
// per client.
func TestSupervisedResidency(t *testing.T) {
	clients := testClients(t, 8, 24)
	const parallelism = 2
	for _, c := range []struct {
		method string
		rows   bool
	}{{"fedavg", false}, {"ditto", true}} {
		m, err := Build(c.method, testCfg(), len(clients))
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		seen := map[int]bool{}
		wrapped := *m
		wrapped.Trainer = trainerFunc(func(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
			mu.Lock()
			seen[client.ID] = true
			mu.Unlock()
			return m.Trainer.Train(ctx, rng, client, global, round)
		})
		sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 9, Parallelism: parallelism}, &wrapped, clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(seen) <= parallelism {
			t.Fatalf("%s: the federation trained %d clients, not more than its parallelism: it shows nothing", c.method, len(seen))
		}
		var base *supBase
		switch tr := m.Trainer.(type) {
		case *fedAvg:
			base = tr.supBase
		case *ditto:
			base = tr.supBase
		}
		if n := base.spares.Len(); n < 1 || n > parallelism {
			t.Errorf("%s: %d models kept after training %d clients, want 1 to %d", c.method, n, len(seen), parallelism)
		}
		switch {
		case !c.rows && m.Clients != nil:
			t.Errorf("%s: has a client table", c.method)
		case c.rows && (m.Clients == nil || m.Clients.Len() != len(seen)):
			t.Errorf("%s: client table %v, want one row for each of the %d clients trained", c.method, m.Clients, len(seen))
		}
	}
}
