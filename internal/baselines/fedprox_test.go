package baselines

import (
	"context"
	"math/rand"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
)

func TestFedProxRegistered(t *testing.T) {
	if _, err := Build("fedprox", testCfg(), 4); err != nil {
		t.Fatalf("Build(fedprox): %v", err)
	}
}

func TestFedProxDefaultsMu(t *testing.T) {
	m := NewFedProx(testCfg(), 0)
	if got := m.Trainer.(*fedProx).mu; got != 0.1 {
		t.Fatalf("default mu = %v, want 0.1", got)
	}
	m = NewFedProx(testCfg(), 0.7)
	if got := m.Trainer.(*fedProx).mu; got != 0.7 {
		t.Fatalf("mu = %v", got)
	}
}

// The proximal term must keep FedProx's local updates closer to the global
// model than FedAvg's, given identical RNG streams.
func TestFedProxStaysCloserToGlobalThanFedAvg(t *testing.T) {
	clients := testClients(t, 2, 40)
	cfg := testCfg()
	cfg.Train.Epochs = 3

	prox := NewFedProx(cfg, 2.0) // strong pull for a clear signal
	avg := NewFedAvg(cfg)
	rng := rand.New(rand.NewSource(50))
	global, err := avg.InitGlobal(rng)
	if err != nil {
		t.Fatalf("InitGlobal: %v", err)
	}
	uProx, err := prox.Trainer.Train(context.Background(), rand.New(rand.NewSource(51)), clients[0], global, 0)
	if err != nil {
		t.Fatalf("fedprox train: %v", err)
	}
	uAvg, err := avg.Trainer.Train(context.Background(), rand.New(rand.NewSource(51)), clients[0], global, 0)
	if err != nil {
		t.Fatalf("fedavg train: %v", err)
	}
	dProx := param.L2Dist(uProx.Params, global)
	dAvg := param.L2Dist(uAvg.Params, global)
	if dProx >= dAvg {
		t.Fatalf("fedprox drift %v should be < fedavg drift %v", dProx, dAvg)
	}
}

func TestFedProxEndToEnd(t *testing.T) {
	clients := testClients(t, 4, 24)
	m, err := Build("fedprox", testCfg(), len(clients))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sim, err := fl.NewSimulator(fl.SimConfig{Rounds: 2, ClientsPerRound: 2, Seed: 52}, m, clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, _, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	accs, err := fl.PersonalizeAll(context.Background(), 52, m, clients, global, 2)
	if err != nil {
		t.Fatalf("PersonalizeAll: %v", err)
	}
	for _, a := range accs {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy = %v", a)
		}
	}
}
