package flnet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/store"
)

// clusteredTrainer ships global + 1 + 0.01·clientID: honest updates cluster
// within 0.04 of each other, so a robust aggregator's choice among them
// moves the global by at most that much per round while a sign-flipped
// update sits far outside the cluster.
type clusteredTrainer struct{}

func (clusteredTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := make([]float64, len(global))
	for i, v := range global {
		params[i] = v + 1 + 0.01*float64(c.ID)
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len()}, nil
}

// runHostileFederation drives a real TCP federation of n clients whose
// trainers are wrapped by adv (nil = all honest) against the given server
// aggregator, and returns the result plus the server's obs snapshot.
func runHostileFederation(t *testing.T, n, rounds int, adv *fl.Adversary, agg fl.Aggregator) (*Result, obs.Snapshot) {
	t.Helper()
	const seed = 7
	clients := netClients(t, n)
	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: n, Rounds: rounds, ClientsPerRound: n, Seed: seed,
		Aggregator: agg,
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 4), nil },
		Federation: fl.Federation{Adversary: adv, Obs: reg},
		IOTimeout:  20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	trainer := adv.WrapTrainer(clusteredTrainer{}, seed, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: trainer, Personalizer: idPersonalizer{},
				Seed: seed, IOTimeout: 20 * time.Second,
			})
		}(i)
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("server Run: %v", err)
	}
	for id, cerr := range errs {
		if cerr != nil {
			t.Fatalf("client %d: %v", id, cerr)
		}
	}
	return res, reg.Snapshot()
}

// TestByzantineSurvivalOverTCP is the integration gate for the threat
// model: a real TCP federation with one sign-flipping client survives under
// krum(1) — the final global stays within the honest cluster's spread of an
// all-honest federation — while the same attack demolishes the plain
// weighted mean. The server's RoundStats and obs counters account for every
// adversarial update and every rejection.
func TestByzantineSurvivalOverTCP(t *testing.T) {
	const n, rounds = 5, 4
	adv := &fl.Adversary{Kind: fl.AdvSignFlip, Scale: 3, Frac: 0.2}
	if mal := adv.Malicious(7, n); len(mal) != 1 {
		t.Fatalf("want exactly one compromised client, got %v", mal)
	}

	honest, _ := runHostileFederation(t, n, rounds, nil, fl.Krum{F: 1})
	robust, snap := runHostileFederation(t, n, rounds, adv, fl.Krum{F: 1})
	poisoned, _ := runHostileFederation(t, n, rounds, adv, fl.WeightedAverage{})

	// Krum must keep the hostile global inside the honest cluster: every
	// round moves it by 1+0.01·k for some honest k, so the worst-case gap to
	// the all-honest run is 0.04·rounds.
	for i := range robust.Global {
		if math.Abs(robust.Global[i]-honest.Global[i]) > 0.04*rounds+1e-9 {
			t.Fatalf("krum global[%d] = %v, honest = %v — attack leaked through", i, robust.Global[i], honest.Global[i])
		}
	}
	// The mean, by contrast, is dragged far below the honest trajectory
	// (each round's average loses ≈0.8 to the reflected update).
	for i := range poisoned.Global {
		if honest.Global[i]-poisoned.Global[i] < 1 {
			t.Fatalf("weighted mean global[%d] = %v did not degrade vs honest %v — control arm broken", i, poisoned.Global[i], honest.Global[i])
		}
	}

	// Accounting: with everyone sampled every round, each round carries
	// exactly one adversarial update, and krum(1) over 5 updates rejects 4.
	for _, h := range robust.History {
		if h.AdversarialUpdates != 1 {
			t.Fatalf("round %d adversarial = %d, want 1", h.Round, h.AdversarialUpdates)
		}
		if h.RejectedUpdates != n-1 {
			t.Fatalf("round %d rejected = %d, want %d", h.Round, h.RejectedUpdates, n-1)
		}
	}
	if got := snap.Counters[obs.CounterAdversarialUpdates]; got != rounds {
		t.Fatalf("obs adversarial_updates_total = %d, want %d", got, rounds)
	}
	if got := snap.Counters[obs.CounterRejectedUpdates]; got != int64(rounds*(n-1)) {
		t.Fatalf("obs aggregator_rejected_updates_total = %d, want %d", got, rounds*(n-1))
	}
}

// TestServerTraceDropsDeterministic: an availability trace on the networked
// server drops participants pre-dispatch (they surface as stragglers), and
// two federations from the same seed agree bit-for-bit.
func TestServerTraceDropsDeterministic(t *testing.T) {
	trace := &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.1, Amp: 0.3, Period: 3}
	run := func() *Result {
		clients := netClients(t, 3)
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", NumClients: 3, Rounds: 6, ClientsPerRound: 3, Seed: 11,
			Aggregator: fl.WeightedAverage{},
			InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 3), nil },
			Federation: fl.Federation{Availability: trace},
			IOTimeout:  20 * time.Second,
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				errs[id] = RunClient(ctx, ClientConfig{
					Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
					Trainer: seededTrainer{}, Personalizer: idPersonalizer{},
					Seed: 11, IOTimeout: 20 * time.Second,
				})
			}(i)
		}
		res, err := srv.Run(ctx)
		wg.Wait()
		if err != nil {
			t.Fatalf("server Run: %v", err)
		}
		for id, cerr := range errs {
			if cerr != nil {
				t.Fatalf("client %d: %v", id, cerr)
			}
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.History, b.History) {
		t.Fatalf("traced federations diverge:\n%+v\nvs\n%+v", a.History, b.History)
	}
	dropped := 0
	for _, h := range a.History {
		dropped += len(h.Stragglers)
	}
	if dropped == 0 {
		t.Fatal("a 0.1–0.4 diurnal trace over 6 rounds never dropped anyone — trace not engaged")
	}
}

// TestServerTraceTotalOutageFails pins the no-rescue contract: unlike the
// simulator, the networked server performs no rescue draws, so a burst that
// drops every sampled participant fails the round with the typed
// fl.ErrQuorumNotMet instead of clamping.
func TestServerTraceTotalOutageFails(t *testing.T) {
	clients := netClients(t, 2)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 2, Rounds: 2, ClientsPerRound: 2, Seed: 3,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return make([]float64, 2), nil },
		Federation: fl.Federation{Availability: &fl.TraceConfig{Kind: fl.TraceFlash, Base: 0, Amp: 1, Period: 0, Width: 1}},
		IOTimeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The server dies mid-federation, so client errors are expected.
			_ = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: addOneTrainer{}, Personalizer: idPersonalizer{},
				Seed: 3, IOTimeout: 10 * time.Second,
			})
		}(i)
	}
	_, err = srv.Run(ctx)
	cancel()
	wg.Wait()
	if !errors.Is(err, fl.ErrQuorumNotMet) {
		t.Fatalf("total outage err = %v, want fl.ErrQuorumNotMet", err)
	}
}

// TestServerTraceKillResumeBitIdentical extends the networked durability
// gate to traced federations: the resumed server must burn the completed
// rounds' trace draws blindly so the continuation is bit-identical to a
// federation that never stopped.
func TestServerTraceKillResumeBitIdentical(t *testing.T) {
	const n, total = 3, 4
	base := ServerConfig{
		NumClients: n, Rounds: total, ClientsPerRound: 2, Seed: 11,
		Federation: fl.Federation{Availability: &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.1, Amp: 0.3, Period: 3}},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ref, err, cerrs := runCkptFederation(t, ctx, base, netClients(t, n))
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	for id, cerr := range cerrs {
		if cerr != nil {
			t.Fatalf("reference client %d: %v", id, cerr)
		}
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	fp := store.Fingerprint("flnet-trace-test", "seeded", "11")
	killCtx, kill := context.WithTimeout(context.Background(), 60*time.Second)
	defer kill()
	cfgA := base
	cfgA.CheckpointEvery = 1
	cfgA.OnCheckpoint = func(state *fl.SimState) error {
		_, err := st.Save(&store.Snapshot{
			Meta:  store.Meta{Seed: base.Seed, Fingerprint: fp, Runtime: "server"},
			State: *state,
		})
		return err
	}
	cfgA.OnRound = func(stats fl.RoundStats) {
		if stats.Round == 1 {
			kill()
		}
	}
	_, err, _ = runCkptFederation(t, killCtx, cfgA, netClients(t, n))
	if err == nil {
		t.Fatal("killed federation reported success")
	}

	snap, version, err := st.Resume(fp)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if snap.State.Round != 2 {
		t.Fatalf("latest snapshot v%d at round %d, want round 2", version, snap.State.Round)
	}
	cfgB := base
	cfgB.ResumeFrom = &snap.State
	res, err, cerrs := runCkptFederation(t, ctx, cfgB, netClients(t, n))
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	for id, cerr := range cerrs {
		if cerr != nil {
			t.Fatalf("resumed client %d: %v", id, cerr)
		}
	}

	for i := range res.Global {
		if math.Float64bits(res.Global[i]) != math.Float64bits(ref.Global[i]) {
			t.Fatalf("global[%d] differs after traced kill+resume: %x vs %x", i, res.Global[i], ref.Global[i])
		}
	}
	if !reflect.DeepEqual(res.History, ref.History) {
		t.Fatalf("history differs after traced kill+resume:\n%+v\nvs\n%+v", res.History, ref.History)
	}
	if !reflect.DeepEqual(res.Accuracies, ref.Accuracies) {
		t.Fatalf("accuracies differ: %v vs %v", res.Accuracies, ref.Accuracies)
	}
}
