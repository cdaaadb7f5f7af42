package fl

import (
	"context"
	"reflect"
	"testing"

	"calibre/internal/obs"
	"calibre/internal/param"
)

// TestObsRegistryDoesNotPerturbRun pins the bit-identity contract of the
// metrics plane: a simulation with a live obs.Registry attached must
// produce exactly the same global model and RoundStats history as one
// without. The config deliberately exercises every instrumented path —
// uplink accounting, dropout/quorum straggler bookkeeping — so any
// instrumentation that leaks into an RNG draw or a result shows up here.
func TestObsRegistryDoesNotPerturbRun(t *testing.T) {
	clients := testClients(t, 8)
	runOnce := func(reg *obs.Registry) (param.Vector, []RoundStats) {
		t.Helper()
		cfg := SimConfig{
			Rounds: 4, ClientsPerRound: 3, Seed: 99,
			Federation: Federation{Quorum: 1, Obs: reg, Availability: &TraceConfig{Kind: TraceFlat, Base: 0.3}},
		}
		sim, err := NewSimulator(cfg, fakeMethod(&fakeTrainer{}), clients)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		global, history, err := sim.Run(context.Background())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return global, history
	}

	plainGlobal, plainHistory := runOnce(nil)
	reg := obs.NewRegistry()
	obsGlobal, obsHistory := runOnce(reg)

	if !reflect.DeepEqual(plainGlobal, obsGlobal) {
		t.Errorf("global model drifted under instrumentation:\nwithout: %v\nwith:    %v", plainGlobal, obsGlobal)
	}
	if !reflect.DeepEqual(plainHistory, obsHistory) {
		t.Errorf("RoundStats history drifted under instrumentation:\nwithout: %+v\nwith:    %+v", plainHistory, obsHistory)
	}

	// And the registry actually observed the run.
	snap := reg.Snapshot()
	if got := snap.Counters[obs.CounterRounds]; got != 4 {
		t.Errorf("rounds_total = %d, want 4", got)
	}
	responders := 0
	for _, rs := range snap.Rounds {
		responders += rs.Responders
	}
	if wire, want := snap.Counters[obs.CounterUplinkWireBytes], int64(8*len(plainGlobal)*responders); wire != want {
		t.Errorf("uplink accounting wrong: %d bytes, want %d (8 per parameter per responder)", wire, want)
	}
	if len(snap.Rounds) != 4 {
		t.Errorf("round ring holds %d samples, want 4", len(snap.Rounds))
	}
	if len(snap.Participation) == 0 {
		t.Error("participation table empty")
	}
	for _, rs := range snap.Rounds {
		if rs.Runtime != "sim" || rs.Responders < 1 || rs.Responders > rs.Participants {
			t.Errorf("implausible round sample: %+v", rs)
		}
	}
}
