package flnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/store"
)

// seededTrainer makes updates depend on the round RNG and the round
// number, so any drift in the resumed server's replayed RNG or round
// counter shows up in the final bits.
type seededTrainer struct{}

func (seededTrainer) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	params := make([]float64, len(global))
	for i, v := range global {
		params[i] = v + rng.NormFloat64()*0.1 + float64(round+1)*0.001
	}
	return &fl.Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(), TrainLoss: rng.Float64()}, nil
}

// runCkptFederation drives one complete federation with in-process clients
// and returns the server result; client errors are returned for the
// caller to judge (a killed server legitimately fails its clients).
func runCkptFederation(t *testing.T, ctx context.Context, cfg ServerConfig, clients []*partition.Client) (*Result, error, []error) {
	t.Helper()
	return runCkptFederationWith(t, ctx, cfg, clients, seededTrainer{})
}

func runCkptFederationWith(t *testing.T, ctx context.Context, cfg ServerConfig, clients []*partition.Client, trainer fl.Trainer) (*Result, error, []error) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	cfg.Aggregator = fl.WeightedAverage{}
	cfg.InitGlobal = func(rng *rand.Rand) (param.Vector, error) {
		out := make([]float64, 5)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out, nil
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 20 * time.Second
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ch := startServer(ctx, srv)
	var wg sync.WaitGroup
	cerrs := make([]error, len(clients))
	for i := range clients {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cerrs[id] = RunClient(ctx, ClientConfig{
				Addr: srv.Addr().String(), ClientID: id, Data: clients[id],
				Trainer: trainer, Personalizer: idPersonalizer{},
				Seed: cfg.Seed, IOTimeout: 20 * time.Second,
			})
		}(i)
	}
	out := <-ch
	wg.Wait()
	return out.res, out.err, cerrs
}

// TestServerKillResumeBitIdentical is the tentpole durability gate for the
// networked runtime: a federation checkpointed every round, killed after
// round 1 (the server process and every connection die), then restarted
// from the on-disk snapshot with rejoining clients, must produce the
// byte-identical global model, RoundStats history and accuracies of a
// federation that was never interrupted.
func TestServerKillResumeBitIdentical(t *testing.T) {
	const n, total = 3, 4
	base := ServerConfig{NumClients: n, Rounds: total, ClientsPerRound: 2, Seed: 11}

	// Reference: uninterrupted run.
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

	// Phase 1: same config, checkpointing every round into a real store,
	// killed via context cancellation right after round 1 completes. Its
	// checkpoint is on disk: this hook saves inline, inside OnCheckpoint,
	// which fires before OnRound. (A deferring hook — store.SaveHook — is
	// durable once Run has returned: TestServerKillAtEveryBoundaryResumes.)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	fp := store.Fingerprint("flnet-test", "seeded", "11")
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
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed federation err = %v, want context.Canceled", err)
	}

	// Phase 2: a fresh server process resumes from disk; clients redial.
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

	if len(res.Global) != len(ref.Global) {
		t.Fatalf("global lengths: %d vs %d", len(res.Global), len(ref.Global))
	}
	for i := range res.Global {
		if math.Float64bits(res.Global[i]) != math.Float64bits(ref.Global[i]) {
			t.Fatalf("global[%d] differs after kill+resume: %x vs %x", i, res.Global[i], ref.Global[i])
		}
	}
	if !reflect.DeepEqual(res.History, ref.History) {
		t.Fatalf("history differs after kill+resume:\n%+v\nvs\n%+v", res.History, ref.History)
	}
	if !reflect.DeepEqual(res.Accuracies, ref.Accuracies) {
		t.Fatalf("accuracies differ: %v vs %v", res.Accuracies, ref.Accuracies)
	}
}

// TestServerCheckpointErrorAborts mirrors the simulator contract on the
// networked runtime.
func TestServerCheckpointErrorAborts(t *testing.T) {
	boom := errors.New("disk full")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cfg := ServerConfig{NumClients: 1, Rounds: 2, ClientsPerRound: 1, Seed: 5,
		OnCheckpoint: func(*fl.SimState) error { return boom }}
	_, err, _ := runCkptFederation(t, ctx, cfg, netClients(t, 1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

// TestServerConfigValidatesResumeState: malformed resume states are
// rejected at construction.
func TestServerConfigValidatesResumeState(t *testing.T) {
	cfg := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 2, ClientsPerRound: 1, Seed: 5,
		Aggregator: fl.WeightedAverage{},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return []float64{0}, nil },
		ResumeFrom: &fl.SimState{Round: 5, Global: []float64{0}},
	}
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("resume state beyond the round budget accepted")
	}
	cfg.ResumeFrom = &fl.SimState{Round: 1, Global: []float64{0}, History: make([]fl.RoundStats, 1)}
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("resume state missing eligible counts accepted")
	}
}

// TestServerRefusesStatefulAggregatorResume: an aggregator carrying
// cross-round server state (SCAFFOLD's control variate) cannot be
// restored from a snapshot, so configuring it with ResumeFrom must fail
// with the typed fl.ErrStatefulResume.
func TestServerRefusesStatefulAggregatorResume(t *testing.T) {
	cfg := ServerConfig{
		Addr: "127.0.0.1:0", NumClients: 1, Rounds: 2, ClientsPerRound: 1, Seed: 5,
		Aggregator: &fl.ScaffoldAggregator{ServerLR: 1},
		InitGlobal: func(rng *rand.Rand) (param.Vector, error) { return []float64{0}, nil },
		ResumeFrom: &fl.SimState{
			Round:          1,
			Global:         []float64{0},
			History:        []fl.RoundStats{{Round: 0, Participants: []int{0}}},
			EligibleCounts: []int{1},
		},
	}
	if _, err := NewServer(cfg); !errors.Is(err, fl.ErrStatefulResume) {
		t.Fatalf("err = %v, want fl.ErrStatefulResume", err)
	}
	// Without resume, the same aggregator may checkpoint freely.
	cfg.ResumeFrom = nil
	cfg.OnCheckpoint = func(*fl.SimState) error { return nil }
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("checkpointing without resume refused: %v", err)
	}
	srv.listener.Close()
}

// deferHook is a deferring checkpoint hook the tests can slow, block or
// fail; it books hand-offs and writes and notices overlap.
type deferHook struct {
	delay  time.Duration
	failAt int           // the write saving this many rounds fails (0: none)
	gate   chan struct{} // when non-nil, every write waits for it to close
	began  chan int      // when non-nil, receives each write's round as it starts

	mu                 sync.Mutex
	handoffs, finished []int
	open, maxOpen      int
	early              int // hook calls made with a write still in flight
}

var errDisk = errors.New("disk full")

func (h *deferHook) hook(st *fl.SimState) error {
	h.mu.Lock()
	h.handoffs = append(h.handoffs, st.Round)
	h.early += h.open
	h.mu.Unlock()
	return st.Defer(func() error {
		h.mu.Lock()
		h.open++
		h.maxOpen = max(h.maxOpen, h.open)
		h.mu.Unlock()
		if h.began != nil {
			h.began <- st.Round
		}
		if h.gate != nil {
			<-h.gate
		}
		time.Sleep(h.delay)
		h.mu.Lock()
		defer h.mu.Unlock()
		h.open--
		h.finished = append(h.finished, st.Round)
		if st.Round == h.failAt {
			return errDisk
		}
		return nil
	})
}

func (h *deferHook) writes() (open int, finished []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.open, append([]int(nil), h.finished...)
}

// TestServerWriteBehindOrder: over TCP, with writes slower than a round,
// checkpoints are still handed off and written strictly in round order,
// one at a time, the loop waiting for the write in flight instead of
// queueing behind it, and no OnRound overlaps a write.
func TestServerWriteBehindOrder(t *testing.T) {
	const n, rounds = 3, 5
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	h := &deferHook{delay: 10 * time.Millisecond}
	overlapped := 0
	cfg := ServerConfig{NumClients: n, Rounds: rounds, ClientsPerRound: 2, Seed: 11, OnCheckpoint: h.hook,
		OnRound: func(fl.RoundStats) { open, _ := h.writes(); overlapped += open }}
	if _, err, _ := runCkptFederation(t, ctx, cfg, netClients(t, n)); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	if _, finished := h.writes(); !reflect.DeepEqual(h.handoffs, want) || !reflect.DeepEqual(finished, want) {
		t.Fatalf("hand-offs %v, writes %v, want both %v", h.handoffs, finished, want)
	}
	if h.maxOpen != 1 || h.early != 0 || overlapped != 0 {
		t.Fatalf("max writes in flight %d, hook calls during a write %d, OnRound calls during a write %d; want 1, 0, 0", h.maxOpen, h.early, overlapped)
	}

	// A write that fails behind round 2 aborts at that round's boundary,
	// under the round it was saving.
	h = &deferHook{failAt: 2}
	observed := 0
	cfg.OnCheckpoint, cfg.OnRound = h.hook, func(fl.RoundStats) { observed++ }
	_, err, _ := runCkptFederation(t, ctx, cfg, netClients(t, n))
	if !errors.Is(err, errDisk) || !strings.Contains(err.Error(), "fl: checkpoint after round 1:") {
		t.Fatalf("err = %v, want the write's error under round 1", err)
	}
	if observed != 2 || !reflect.DeepEqual(h.handoffs, []int{1, 2}) {
		t.Fatalf("%d rounds observed, hand-offs %v: the federation outran its failed checkpoint", observed, h.handoffs)
	}
}

// failFrom is seededTrainer until round, then every client errors out.
type failFrom struct{ round int }

func (f failFrom) Train(ctx context.Context, rng *rand.Rand, c *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	if round >= f.round {
		return nil, errors.New("client out of memory")
	}
	return seededTrainer{}.Train(ctx, rng, c, global, round)
}

// TestServerDrainsBeforeRunReturns: Server.Run never returns — finished,
// cancelled, or failing a round with ErrQuorumNotMet — while the checkpoint
// it accepted is still being written.
func TestServerDrainsBeforeRunReturns(t *testing.T) {
	const n = 2
	cases := []struct {
		name    string
		rounds  int
		trainer fl.Trainer
		kill    bool
		wantErr func(error) bool
	}{
		{"success", 1, seededTrainer{}, false, func(err error) bool { return err == nil }},
		{"cancelled context", 3, seededTrainer{}, true, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"quorum not met", 3, failFrom{1}, false, func(err error) bool { return errors.Is(err, fl.ErrQuorumNotMet) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			h := &deferHook{gate: make(chan struct{}), began: make(chan int, tc.rounds)} // a slot per write: none blocks on the test
			cfg := ServerConfig{NumClients: n, Rounds: tc.rounds, ClientsPerRound: n, Seed: 11, OnCheckpoint: h.hook}
			if tc.kill {
				cfg.OnRound = func(fl.RoundStats) { cancel() }
			}
			// The watcher holds the first write open long enough for a Run
			// that does not wait for it to get away, then releases it.
			var returned atomic.Bool
			ended, watched := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(watched)
				defer close(h.gate)
				select {
				case r := <-h.began:
					if r != 1 {
						t.Errorf("first write saves round %d", r)
					}
				case <-ended:
					t.Error("Run ended before any checkpoint write started")
					return
				}
				time.Sleep(50 * time.Millisecond)
				if returned.Load() {
					t.Error("Run returned with the checkpoint write in flight")
				}
			}()
			_, err, _ := runCkptFederationWith(t, ctx, cfg, netClients(t, n), tc.trainer)
			returned.Store(true)
			close(ended)
			<-watched
			if !tc.wantErr(err) {
				t.Fatalf("Run error = %v", err)
			}
			if open, finished := h.writes(); open != 0 || len(finished) == 0 || finished[0] != 1 {
				t.Fatalf("when Run returned: %d writes open, finished %v", open, finished)
			}
		})
	}
}

// TestServerKillAtEveryBoundaryResumes: a server checkpointing through the
// deferring store hook is killed at each round boundary in turn; what Run
// leaves behind is the checkpoint of the last completed round (onSaved fires
// only for versions a second handle can open), and a fresh server resumed
// from it — or from the version before it, which is what a kill -9 with
// that write in flight would have left — finishes bit-identical to the
// uninterrupted federation.
func TestServerKillAtEveryBoundaryResumes(t *testing.T) {
	const n, total = 3, 4
	base := ServerConfig{NumClients: n, Rounds: total, ClientsPerRound: 2, Seed: 11}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ref, err, _ := runCkptFederation(t, ctx, base, netClients(t, n))
	if err != nil {
		t.Fatal(err)
	}
	fp := store.Fingerprint("flnet-test", "seeded", "11")
	resume := func(dir string, wantRound int) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := st.Resume(fp)
		if err != nil || snap.State.Round != wantRound {
			t.Fatalf("store holds %+v (%v), want round %d", snap, err, wantRound)
		}
		cfg := base
		cfg.ResumeFrom = &snap.State
		res, err, _ := runCkptFederation(t, ctx, cfg, netClients(t, n))
		if err != nil {
			t.Fatalf("resume from round %d: %v", wantRound, err)
		}
		for i := range ref.Global {
			if math.Float64bits(res.Global[i]) != math.Float64bits(ref.Global[i]) {
				t.Fatalf("resume from round %d: global[%d] differs", wantRound, i)
			}
		}
		if !reflect.DeepEqual(res.History, ref.History) || !reflect.DeepEqual(res.Accuracies, ref.Accuracies) {
			t.Fatalf("resume from round %d: history or accuracies differ", wantRound)
		}
	}
	for kill := 0; kill < total-1; kill++ {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.SetIncremental(true)
		other, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		killCtx, killNow := context.WithCancel(ctx)
		cfg := base
		cfg.OnCheckpoint = st.SaveHook(store.Meta{Seed: base.Seed, Fingerprint: fp, Runtime: "server"},
			func(v int, state *fl.SimState) {
				if snap, err := other.Open(v); err != nil || snap.State.Round != state.Round {
					t.Errorf("onSaved(v%d, round %d) but a second handle reads %v", v, state.Round, err)
				}
			})
		cfg.OnRound = func(s fl.RoundStats) {
			if s.Round == kill {
				killNow()
			}
		}
		if _, err, _ := runCkptFederation(t, killCtx, cfg, netClients(t, n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("kill at boundary %d: err = %v", kill, err)
		}
		killNow()
		resume(dir, kill+1)
		if kill > 0 {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.calibre", kill+1))); err != nil {
				t.Fatal(err)
			}
			resume(dir, kill)
		}
	}
}
