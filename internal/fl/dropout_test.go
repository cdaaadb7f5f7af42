package fl

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestApplyDropoutKeepsAtLeastOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		rate := rng.Float64() * 0.99
		kept := applyDropout(rng, ids, func(int) float64 { return rate }, 0)
		if len(kept) < 1 || len(kept) > n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, id := range ids {
			seen[id] = true
		}
		for _, id := range kept {
			if !seen[id] {
				return false // survivors must come from the sampled set
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDropoutZeroRateIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := []int{3, 1, 4}
	kept := applyDropout(rng, ids, nil, 0)
	if len(kept) != 3 {
		t.Fatalf("kept = %v", kept)
	}
}

func TestApplyDropoutRespectsQuorum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := []int{0, 1, 2, 3, 4, 5}
	for trial := 0; trial < 50; trial++ {
		kept := applyDropout(rng, ids, func(int) float64 { return 0.95 }, 4)
		if len(kept) < 4 {
			t.Fatalf("trial %d: quorum 4 violated, kept %v", trial, kept)
		}
		if !sort.IntsAreSorted(kept) {
			t.Fatalf("survivors not sorted: %v", kept)
		}
	}
}

func TestSimulatorWithDropoutStillCompletes(t *testing.T) {
	clients := testClients(t, 10)
	tr := &fakeTrainer{}
	sim, err := NewSimulator(SimConfig{Rounds: 8, ClientsPerRound: 4, Seed: 7, DropoutRate: 0.5}, fakeMethod(tr), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	_, hist, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var total int
	dropped := false
	for _, h := range hist {
		if len(h.Participants) != 4 {
			t.Fatalf("round %d sampled = %v", h.Round, h.Participants)
		}
		survivors := h.Participants
		if h.Responders != nil {
			survivors = h.Responders
			dropped = true
			if len(h.Stragglers)+len(h.Responders) != len(h.Participants) {
				t.Fatalf("round %d accounting: %d stragglers + %d responders != %d sampled",
					h.Round, len(h.Stragglers), len(h.Responders), len(h.Participants))
			}
		}
		if len(survivors) < 1 || len(survivors) > 4 {
			t.Fatalf("round %d survivors = %v", h.Round, survivors)
		}
		total += len(survivors)
	}
	if !dropped {
		t.Fatal("50% dropout over 8 rounds should drop someone")
	}
	if int(tr.calls.Load()) != total {
		t.Fatalf("trainer calls %d != surviving participants %d", tr.calls.Load(), total)
	}
}

func TestSimulatorRejectsInvalidDropout(t *testing.T) {
	clients := testClients(t, 4)
	m := fakeMethod(&fakeTrainer{})
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1, DropoutRate: 1}, m, clients); err == nil {
		t.Fatal("dropout rate 1 should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1, DropoutRate: -0.1}, m, clients); err == nil {
		t.Fatal("negative dropout rate should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1, DropoutRate: math.NaN()}, m, clients); err == nil {
		t.Fatal("NaN dropout rate should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 2, Federation: Federation{Quorum: 3}}, m, clients); err == nil {
		t.Fatal("quorum above clientsPerRound should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 8, Federation: Federation{Quorum: 5}}, m, clients); err == nil {
		t.Fatal("quorum above the client population should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1, Federation: Federation{Quorum: -1}}, m, clients); err == nil {
		t.Fatal("negative quorum should be rejected")
	}
	if _, err := NewSimulator(SimConfig{Rounds: 1, ClientsPerRound: 1, Federation: Federation{Straggler: StragglerPolicy(9)}}, m, clients); err == nil {
		t.Fatal("unknown straggler policy should be rejected")
	}
}

// TestSimulatorStragglerDropShrinksPopulation checks StragglerDrop: a
// client that drops out of a round never reappears in a later round.
func TestSimulatorStragglerDropShrinksPopulation(t *testing.T) {
	clients := testClients(t, 8)
	tr := &fakeTrainer{}
	sim, err := NewSimulator(SimConfig{
		Rounds: 10, ClientsPerRound: 4, Seed: 11, DropoutRate: 0.4, Federation: Federation{Straggler: StragglerDrop},
	}, fakeMethod(tr), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	_, hist, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	evicted := map[int]bool{}
	for _, h := range hist {
		for _, id := range h.Participants {
			if evicted[id] {
				t.Fatalf("round %d sampled evicted client %d", h.Round, id)
			}
		}
		for _, id := range h.Stragglers {
			evicted[id] = true
		}
	}
	if len(evicted) == 0 {
		t.Fatal("40% dropout over 10 rounds should evict someone")
	}
}
