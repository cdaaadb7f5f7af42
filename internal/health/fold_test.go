package health

import (
	"math"
	"reflect"
	"testing"

	"calibre/internal/obs"
	"calibre/internal/trace"
)

// replayed folds events through a Fold with a metrics ring and a monitor
// attached and returns the samples the ring observed.
func replayed(events []trace.Event) []obs.RoundSample {
	reg := obs.NewRegistry()
	(&Fold{Obs: reg, Monitor: NewMonitor(nil)}).Replay(events)
	return reg.Snapshot().Rounds
}

// TestReplaySamplesServerTrace folds a server-style round — update
// events in network-arrival order, an ingress rejection, a deadline
// straggler — and checks the sample matches what the live server fed its
// monitor: clients in dispatch order, the rejection in both StragglerIDs
// and RejectedIDs (sorted), DeadlineExpired inferred from the
// straggler-reason drop of a dispatched round.
func TestReplaySamplesServerTrace(t *testing.T) {
	ev := func(kind trace.Kind, round, client int, mut ...func(*trace.Event)) trace.Event {
		e := trace.Event{Kind: kind, Runtime: "server", Round: round, Client: client}
		for _, m := range mut {
			m(&e)
		}
		return e
	}
	events := []trace.Event{
		ev(trace.KindRoundStart, 0, -1, func(e *trace.Event) { e.N = 5 }),
		ev(trace.KindClientDispatch, 0, 3),
		ev(trace.KindClientDispatch, 0, 1),
		ev(trace.KindClientDispatch, 0, 4),
		ev(trace.KindClientDispatch, 0, 0),
		ev(trace.KindClientDispatch, 0, 2),
		// Arrival order scrambles dispatch order.
		ev(trace.KindClientUpdate, 0, 4, func(e *trace.Event) { e.Loss = 0.4; e.Norm = 4 }),
		ev(trace.KindClientDrop, 0, 2, func(e *trace.Event) { e.Reason = trace.DropAdversarial }),
		ev(trace.KindClientUpdate, 0, 1, func(e *trace.Event) { e.Loss = 0.1; e.Norm = 1 }),
		ev(trace.KindClientUpdate, 0, 3, func(e *trace.Event) { e.Loss = 0.3; e.Norm = 3 }),
		// Deadline expiry: client 0 never answered.
		ev(trace.KindClientDrop, 0, 0, func(e *trace.Event) { e.Reason = trace.DropStraggler }),
		ev(trace.KindRoundEnd, 0, -1, func(e *trace.Event) { e.N = 3; e.Loss = 0.25 }),
		// A second, torn round: dropped, like the live monitor never saw it.
		ev(trace.KindRoundStart, 1, -1, func(e *trace.Event) { e.N = 2 }),
		ev(trace.KindClientDispatch, 1, 0),
	}
	got := replayed(events)
	want := []obs.RoundSample{{
		Runtime:      "server",
		Round:        0,
		Participants: 5,
		Responders:   3,
		Stragglers:   2,
		// Dispatch order was 3, 1, 4, 0, 2 — the live sample lists the
		// three responders in that order, not arrival order.
		Clients: []obs.ClientSample{
			{ID: 3, Loss: 0.3, Norm: 3},
			{ID: 1, Loss: 0.1, Norm: 1},
			{ID: 4, Loss: 0.4, Norm: 4},
		},
		StragglerIDs:    []int{2, 0},
		RejectedIDs:     []int{2},
		DeadlineExpired: true,
		MeanLoss:        0.25,
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded %+v\nwant %+v", got, want)
	}
}

// TestReplaySamplesSimTrace covers the simulator's shape: drops before
// any dispatch, no rejections, no deadline — and a trace-reason drop
// never inferring deadline expiry.
func TestReplaySamplesSimTrace(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindRoundStart, Runtime: "sim", Round: 0, Client: -1, N: 3},
		{Kind: trace.KindClientDispatch, Runtime: "sim", Round: 0, Client: 0},
		{Kind: trace.KindClientDispatch, Runtime: "sim", Round: 0, Client: 2},
		{Kind: trace.KindClientDrop, Runtime: "sim", Round: 0, Client: 1, Reason: trace.DropTrace},
		{Kind: trace.KindClientUpdate, Runtime: "sim", Round: 0, Client: 0, Loss: 0.5, Norm: 1},
		{Kind: trace.KindClientUpdate, Runtime: "sim", Round: 0, Client: 2, Loss: 0.7, Norm: 2},
		{Kind: trace.KindRoundEnd, Runtime: "sim", Round: 0, Client: -1, N: 2, Loss: 0.6},
	}
	got := replayed(events)
	want := []obs.RoundSample{{
		Runtime:      "sim",
		Round:        0,
		Participants: 3,
		Responders:   2,
		Stragglers:   1,
		Clients: []obs.ClientSample{
			{ID: 0, Loss: 0.5, Norm: 1},
			{ID: 2, Loss: 0.7, Norm: 2},
		},
		StragglerIDs: []int{1},
		MeanLoss:     0.6,
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded %+v\nwant %+v", got, want)
	}
}

// TestFoldSchemaAdditions folds the facts only newer traces carry — a
// rejected upload's billed bytes, stale replies, the round's attack
// accounting — and checks a metrics-only fold leaves out the per-client
// detail a monitor would get.
func TestFoldSchemaAdditions(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindRoundStart, Runtime: "server", Round: 0, Client: -1, N: 2},
		{Kind: trace.KindClientDispatch, Runtime: "server", Round: 0, Client: 0},
		{Kind: trace.KindClientDispatch, Runtime: "server", Round: 0, Client: 1},
		{Kind: trace.KindClientLate, Runtime: "server", Round: 0, Client: 5},
		{Kind: trace.KindClientDrop, Runtime: "server", Round: 0, Client: 1, Reason: trace.DropRejected, Bytes: 24},
		{Kind: trace.KindClientUpdate, Runtime: "server", Round: 0, Client: 0, Bytes: 32, Dur: 7, Loss: 0.5, Norm: 1},
		{Kind: trace.KindClientLate, Runtime: "server", Round: 0, Client: 6},
		{Kind: trace.KindRoundEnd, Runtime: "server", Round: 0, Client: -1, N: 1, Loss: 0.5, Dur: 3e6,
			Adversarial: 1, Rejected: 1},
	}
	bare := obs.RoundSample{Runtime: "server", Participants: 2, Responders: 1, Stragglers: 1, LateUpdates: 2,
		AdversarialUpdates: 1, RejectedUpdates: 1, MeanLoss: 0.5, UplinkWireBytes: 56, DurationMS: 3}
	reg := obs.NewRegistry()
	(&Fold{Obs: reg}).Replay(events)
	snap := reg.Snapshot()
	if !reflect.DeepEqual(snap.Rounds, []obs.RoundSample{bare}) {
		t.Errorf("metrics-only fold = %+v\nwant %+v", snap.Rounds, bare)
	}
	if got := snap.Participation["0"]; got != 1 || len(snap.Participation) != 1 {
		t.Errorf("participation = %v, want only client 0 once", snap.Participation)
	}
	if h := snap.Histograms[obs.HistClientTurnaround]; h.Count != 1 || h.Sum != 7 {
		t.Errorf("turnaround histogram = %+v, want the one update's 7 ns", h)
	}
	detailed := bare
	detailed.Clients = []obs.ClientSample{{ID: 0, Loss: 0.5, Norm: 1}}
	detailed.StragglerIDs, detailed.RejectedIDs = []int{1}, []int{1}
	if got := replayed(events); !reflect.DeepEqual(got, []obs.RoundSample{detailed}) {
		t.Errorf("monitored fold = %+v\nwant %+v", got, detailed)
	}
}

// TestFoldRewindsReexecutedRounds pins the resume rule: a resume at round
// s, or a round_start for a round already folded, discards the folded
// rounds from s on, so an appended kill+resume trace folds to the rounds
// of one uninterrupted run.
func TestFoldRewindsReexecutedRounds(t *testing.T) {
	round := func(r int, loss float64) []trace.Event {
		return []trace.Event{
			{Kind: trace.KindRoundStart, Runtime: "sim", Round: r, Client: -1, N: 1},
			{Kind: trace.KindClientDispatch, Runtime: "sim", Round: r, Client: 0},
			{Kind: trace.KindClientUpdate, Runtime: "sim", Round: r, Client: 0, Loss: loss},
			{Kind: trace.KindRoundEnd, Runtime: "sim", Round: r, Client: -1, N: 1, Loss: loss},
		}
	}
	var events []trace.Event
	for r := 0; r < 4; r++ { // the killed run got past its checkpoint at 2
		events = append(events, round(r, 9)...)
	}
	events = append(events, trace.Event{Kind: trace.KindRoundStart, Runtime: "sim", Round: 4, Client: -1, N: 1}) // torn
	events = append(events, trace.Event{Kind: trace.KindResume, Runtime: "sim", Round: 2, Client: -1})
	events = append(events, round(2, 1)...)
	events = append(events, round(3, 1)...)
	// A second append without a resume mark still re-executes round 3.
	events = append(events, round(3, 2)...)
	events = append(events, round(4, 2)...)
	var got []float64
	for _, s := range replayed(events) {
		if s.Round != len(got) {
			t.Fatalf("folded rounds out of order: %+v", s)
		}
		got = append(got, s.MeanLoss)
	}
	if want := []float64{9, 9, 1, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("folded losses by round = %v, want %v", got, want)
	}
}

// TestFoldWarmFeedsOnlyTheMonitor checks Warm: the checkpointed rounds
// reach the monitor and the alert counters, carry no per-client detail,
// and stay out of the metrics ring, which saw them in the run that
// produced them.
func TestFoldWarmFeedsOnlyTheMonitor(t *testing.T) {
	reg := obs.NewRegistry()
	mon := NewMonitor(nil)
	var alerts []Alert
	f := &Fold{Obs: reg, Monitor: mon, OnAlert: func(a Alert) { alerts = append(alerts, a) }}
	f.Warm([]trace.Event{
		{Kind: trace.KindRoundStart, Runtime: "sim", Round: 0, Client: -1, N: 2},
		{Kind: trace.KindClientDrop, Runtime: "sim", Round: 0, Client: 1, Reason: trace.DropStraggler},
		{Kind: trace.KindRoundEnd, Runtime: "sim", Round: 0, Client: -1, N: 1, Loss: math.NaN()},
	})
	d := mon.Diagnosis()
	if d.Rounds != 1 || len(d.Clients) != 0 {
		t.Errorf("warm-started diagnosis = %+v, want one round and no per-client rows", d)
	}
	if len(alerts) != 1 || alerts[0].Rule != "non-finite" {
		t.Errorf("alerts = %v, want the NaN loss's non-finite alert", alerts)
	}
	snap := reg.Snapshot()
	if len(snap.Rounds) != 0 || snap.Counters[obs.CounterRounds] != 0 {
		t.Errorf("warm start reached the metrics ring: %+v", snap)
	}
	if snap.Counters[obs.CounterHealthCritical] != 1 {
		t.Errorf("health_critical_alerts_total = %d, want 1", snap.Counters[obs.CounterHealthCritical])
	}
}
