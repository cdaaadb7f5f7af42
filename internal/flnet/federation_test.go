package flnet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// TestRuntimesRefuseTheSameFederation: both runtimes embed one
// fl.Federation and validate it through one RoundConfig.Validate, so every
// bad shared value is refused by the simulator and the server alike.
func TestRuntimesRefuseTheSameFederation(t *testing.T) {
	clients := netClients(t, 4)
	init := func(*rand.Rand) (param.Vector, error) { return []float64{0}, nil }
	method := &fl.Method{Name: "add-one", Trainer: addOneTrainer{}, Aggregator: fl.WeightedAverage{},
		Personalizer: idPersonalizer{}, InitGlobal: init}
	build := func(f fl.Federation) (simErr, srvErr error) {
		_, simErr = fl.NewSimulator(fl.SimConfig{Federation: f, Rounds: 2, ClientsPerRound: 2, Seed: 1}, method, clients)
		srv, srvErr := NewServer(ServerConfig{Federation: f, Addr: "127.0.0.1:0", NumClients: 4, Rounds: 2,
			ClientsPerRound: 2, Seed: 1, Aggregator: fl.WeightedAverage{}, InitGlobal: init})
		if srvErr == nil {
			_ = srv.listener.Close()
		}
		return simErr, srvErr
	}
	valid := fl.Federation{Quorum: 2, Straggler: fl.StragglerDrop,
		Availability: &fl.TraceConfig{Kind: fl.TraceDiurnal, Base: 0.1, Amp: 0.1, Period: 4},
		Adversary:    &fl.Adversary{Kind: fl.AdvSignFlip, Scale: 1, Frac: 0.25}}
	if simErr, srvErr := build(valid); simErr != nil || srvErr != nil {
		t.Fatalf("valid federation refused: simulator %v, server %v", simErr, srvErr)
	}
	for name, f := range map[string]fl.Federation{
		"negative quorum":          {Quorum: -1},
		"quorum above per-round":   {Quorum: 3},
		"unknown straggler policy": {Straggler: fl.StragglerPolicy(9)},
		"invalid availability":     {Availability: &fl.TraceConfig{Kind: "weekly"}},
		"invalid adversary":        {Adversary: &fl.Adversary{Kind: fl.AdvSignFlip, Frac: 1.5}},
		"resume past rounds": {ResumeFrom: &fl.SimState{Round: 3, Global: []float64{0},
			History: make([]fl.RoundStats, 3), EligibleCounts: []int{4, 4, 4}}},
	} {
		if simErr, srvErr := build(f); simErr == nil || srvErr == nil {
			t.Errorf("%s: simulator err %v, server err %v; want both refused", name, simErr, srvErr)
		}
	}
}

// TestRuntimeConfigsShareOnlyTheFederation: a field both runtime configs
// declare directly is a second copy of a shared knob. The only ones left
// are the names keyed literals outside this module spell on both.
func TestRuntimeConfigsShareOnlyTheFederation(t *testing.T) {
	direct := func(v any) map[string]bool {
		names := make(map[string]bool)
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			if len(f.Index) == 1 && !f.Anonymous {
				names[f.Name] = true
			}
		}
		return names
	}
	sim := direct(fl.SimConfig{})
	var shared []string
	for name := range direct(ServerConfig{}) {
		if sim[name] {
			shared = append(shared, name)
		}
	}
	sort.Strings(shared)
	if want := []string{"ClientsPerRound", "OnRound", "Rounds", "Seed"}; !reflect.DeepEqual(shared, want) {
		t.Fatalf("SimConfig and ServerConfig both declare %v, want only %v", shared, want)
	}
}
