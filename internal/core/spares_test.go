package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/partition"
	"calibre/internal/ssl"
)

// trained is what one local update left behind: its payload, loss and
// divergence, and the client's row after it.
type trained struct {
	params     param.Vector
	loss, div  float64
	row        param.Vector
	hasRow     bool
	trainables int
}

// trainOn runs one Calibre local update per client, in order, on method —
// one after the other, so every update is lent the same spare trainable —
// each with the regularizer on and an RNG of the client's own.
func trainOn(t *testing.T, method *fl.Method, global param.Vector, clients ...*partition.Client) map[int]trained {
	t.Helper()
	out := map[int]trained{}
	for _, c := range clients {
		u, err := method.Trainer.Train(context.Background(), rand.New(rand.NewSource(int64(100+c.ID))), c, global, 5)
		if err != nil {
			t.Fatalf("client %d: %v", c.ID, err)
		}
		tr := trained{params: u.Params.Clone(), loss: u.TrainLoss, div: u.Divergence}
		u.GiveBack()
		if method.Clients != nil {
			row, ok := method.Clients.Peek(c.ID)
			tr.row, tr.hasRow = row.Clone(), ok
		}
		out[c.ID] = tr
	}
	for id, tr := range out {
		tr.trainables = method.Trainer.(*SSLTrainer).spares.Len()
		out[id] = tr
	}
	return out
}

// TestLentTrainableKeepsNothingBetweenClients: for every SSL flavour, two
// clients trained one after the other on one lent trainable — in either
// order — produce, bit for bit, the updates (payload, loss, divergence) and
// rows they produce each on a trainer of its own. Whatever a trainable
// keeps from one update to the next (its clustering workspace, a method's
// scratch) must not reach the next client's update.
func TestLentTrainableKeepsNothingBetweenClients(t *testing.T) {
	clients := testClients(t, 2, 30)
	a, b := clients[0], clients[1]
	for _, name := range ssl.MethodNames() {
		t.Run(name, func(t *testing.T) {
			build := func() *fl.Method {
				cfg := DefaultConfig(testArch(), name, 10)
				cfg.Train = shortTrainCfg()
				m, err := New(cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return m
			}
			global, err := build().InitGlobal(rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			alone := trainOn(t, build(), global, a)
			for id, tr := range trainOn(t, build(), global, b) {
				alone[id] = tr
			}
			for _, order := range [][]*partition.Client{{a, b}, {b, a}} {
				for id, got := range trainOn(t, build(), global, order...) {
					want := alone[id]
					if got.trainables != 1 {
						t.Fatalf("order %d,%d: the trainer keeps %d trainables, want the one both updates were lent", order[0].ID, order[1].ID, got.trainables)
					}
					if !sameBits(got.params, want.params) || math.Float64bits(got.loss) != math.Float64bits(want.loss) ||
						math.Float64bits(got.div) != math.Float64bits(want.div) {
						t.Errorf("order %d,%d: client %d's update differs from its update on a trainable of its own", order[0].ID, order[1].ID, id)
					}
					if got.hasRow != want.hasRow || !sameBits(got.row, want.row) {
						t.Errorf("order %d,%d: client %d's row differs from its row on a trainable of its own", order[0].ID, order[1].ID, id)
					}
				}
			}
		})
	}
}

// TestSSLTrainerResidency: after a federation, calibre-simclr's trainer
// holds no client rows and no more trainables than updates ran at once;
// calibre-byol's holds one row — a target network — per client it trained,
// and still no trainable per client.
func TestSSLTrainerResidency(t *testing.T) {
	clients := testClients(t, 8, 30)
	const parallelism = 2
	for _, c := range []struct {
		flavour string
		rows    bool
	}{{"simclr", false}, {"byol", true}} {
		cfg := DefaultConfig(testArch(), c.flavour, 10)
		cfg.Train = shortTrainCfg()
		method, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var mu sync.Mutex
		seen := map[int]bool{}
		wrapped := *method
		wrapped.Trainer = trainerFunc(func(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
			mu.Lock()
			seen[client.ID] = true
			mu.Unlock()
			return method.Trainer.Train(ctx, rng, client, global, round)
		})
		sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 4, ClientsPerRound: 4, Seed: 9, Parallelism: parallelism}, &wrapped, clients)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(seen) <= parallelism {
			t.Fatalf("%s: the federation trained %d clients, not more than its parallelism: it shows nothing", c.flavour, len(seen))
		}
		if n := method.Trainer.(*SSLTrainer).spares.Len(); n < 1 || n > parallelism {
			t.Errorf("%s: %d trainables kept after training %d clients, want 1 to %d", c.flavour, n, len(seen), parallelism)
		}
		switch {
		case !c.rows && method.Clients != nil:
			t.Errorf("%s: has a client table", c.flavour)
		case c.rows && (method.Clients == nil || method.Clients.Len() != len(seen)):
			t.Errorf("%s: client table %v, want one row for each of the %d clients trained", c.flavour, method.Clients, len(seen))
		}
	}
}

type trainerFunc func(context.Context, *rand.Rand, *partition.Client, param.Vector, int) (*fl.Update, error)

func (f trainerFunc) Train(ctx context.Context, rng *rand.Rand, client *partition.Client, global param.Vector, round int) (*fl.Update, error) {
	return f(ctx, rng, client, global, round)
}
