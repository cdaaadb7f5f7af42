package fl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/trace"
)

// scriptOp is one thing a scripted transport reports to the round ledger.
type scriptOp struct {
	kind string // "arrive" | "reject" | "late" | "expire"
	slot int
}

// scriptTransport is a fake Transport: every round samples the same
// participants and Collect replays a fixed script against the ledger — the
// arrival orders, rejections, stale replies and deadlines that the real
// runtimes only produce through whole federations.
type scriptTransport struct {
	sampled, live []int
	script        []scriptOp
	expired       []int
	lent          []param.Vector // every payload it borrowed for an update
}

func (s *scriptTransport) Runtime() string { return "fake" }
func (s *scriptTransport) Population() int { return 8 }

func (s *scriptTransport) Draw(*rand.Rand, int, int) (sampled, live []int, pool int, err error) {
	return s.sampled, s.live, 8, nil
}

func (s *scriptTransport) Collect(_ context.Context, r *Round) error {
	for _, op := range s.script {
		var err error
		switch id := r.Participants()[op.slot]; op.kind {
		case "arrive", "reject":
			// Client id ships global+id with loss id, in a vector borrowed
			// for it; a rejected payload is one element short.
			n := len(r.Global)
			if op.kind == "reject" {
				n--
			}
			p := s.borrow(n)
			for i := range p {
				p[i] = r.Global[i] + float64(id)
			}
			u := &Update{ClientID: id, Params: p, NumSamples: 1, TrainLoss: float64(id), Lent: true}
			if err = r.Arrive(op.slot, u); err != nil {
				err = r.Drop(op.slot, "rejected")
			} else {
				err = r.Advance()
			}
		case "late":
			r.Late(id, &Update{ClientID: id, Params: s.borrow(len(r.Global)), Lent: true})
		case "expire":
			s.expired, err = r.Expire()
		}
		if err != nil {
			return err
		}
	}
	if r.Open() {
		return errors.New("script left the round open")
	}
	return nil
}

func (s *scriptTransport) borrow(n int) param.Vector {
	v := param.Borrow(n)
	s.lent = append(s.lent, v)
	return v
}

// orderAgg is a batch-only aggregator recording the order updates reached
// the aggregate in.
type orderAgg struct{ order *[]int }

func (a orderAgg) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	for _, u := range updates {
		*a.order = append(*a.order, u.ClientID)
	}
	return WeightedAverage{}.Aggregate(global, updates)
}

// TestRoundCoreLedger drives the round core through a scripted transport
// and pins, per scenario, the three things a round becomes — RoundStats,
// the obs.RoundSample and the trace events — plus the canonical ingestion
// order and the aggregate. The recorded events, folded offline, must give
// back exactly the samples the live registry observed. The phase events
// are checked apart from the ledger's: a closed round carries every phase
// once, in the order they tile the iteration, and a failed one only the
// draw it got past.
func TestRoundCoreLedger(t *testing.T) {
	const seed = 5
	adv := &Adversary{Kind: AdvSignFlip, Scale: 2, Frac: 0.5}
	mal := map[int]bool{}
	for _, id := range adv.Malicious(seed, 8) {
		mal[id] = true
	}
	rejectReason := func(id int) string {
		if mal[id] {
			return string(trace.DropAdversarial)
		}
		return string(trace.DropRejected)
	}
	countMal := func(ids ...int) (n int) {
		for _, id := range ids {
			if mal[id] {
				n++
			}
		}
		return n
	}
	all := []int{1, 3, 4, 6}
	clientsOf := func(ids ...int) []obs.ClientSample {
		out := make([]obs.ClientSample, len(ids))
		for i, id := range ids {
			out[i] = obs.ClientSample{ID: id, Loss: float64(id), Norm: 2 * float64(id)} // ‖(id,id,id,id)‖₂
		}
		return out
	}

	cases := []struct {
		name       string
		quorum     int
		availTrace bool
		metrics    bool // the registry alone: no recorder, no monitor
		live       []int
		script     []scriptOp
		wantErr    error
		wantStats  RoundStats
		wantSample obs.RoundSample
		wantEvents []string
		wantOrder  []int
		wantGlobal float64
		wantExpire []int
	}{
		{
			name:       "shuffled arrivals stream in slot order",
			script:     []scriptOp{{"arrive", 2}, {"arrive", 0}, {"arrive", 3}, {"arrive", 1}},
			wantStats:  RoundStats{Participants: all, MeanLoss: 3.5, AdversarialUpdates: countMal(all...)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 4, UplinkWireBytes: 128, Clients: clientsOf(all...)},
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6",
				"client_update 1", "client_update 3", "client_update 4", "client_update 6", "round_end n=4"},
			wantOrder: all, wantGlobal: 3.5,
		},
		{
			name: "rejection is dropped, attributed and still billed", quorum: 2,
			script: []scriptOp{{"arrive", 3}, {"reject", 1}, {"arrive", 0}, {"arrive", 2}},
			wantStats: RoundStats{Participants: all, Responders: []int{1, 4, 6}, Stragglers: []int{3},
				MeanLoss: 11.0 / 3, AdversarialUpdates: countMal(1, 4, 6)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 3, Stragglers: 1, UplinkWireBytes: 96 + 24,
				Clients: clientsOf(1, 4, 6), StragglerIDs: []int{3}, RejectedIDs: []int{3}},
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6",
				"client_drop 3 " + rejectReason(3) + " rejected", "client_update 1", "client_update 4", "client_update 6", "round_end n=3"},
			wantOrder: []int{1, 4, 6}, wantGlobal: 11.0 / 3,
		},
		{
			name:    "rejection under full synchrony fails but leaves the drop",
			script:  []scriptOp{{"arrive", 0}, {"reject", 1}},
			wantErr: ErrQuorumNotMet,
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6",
				"client_update 1", "client_drop 3 " + rejectReason(3) + " rejected"},
		},
		{
			name:       "stale reply is counted, not aggregated",
			script:     []scriptOp{{"late", 0}, {"arrive", 0}, {"arrive", 1}, {"arrive", 2}, {"arrive", 3}},
			wantStats:  RoundStats{Participants: all, MeanLoss: 3.5, LateUpdates: 1, AdversarialUpdates: countMal(all...)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 4, LateUpdates: 1, UplinkWireBytes: 128, Clients: clientsOf(all...)},
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6",
				"client_late 1", "client_update 1", "client_update 3", "client_update 4", "client_update 6", "round_end n=4"},
			wantOrder: all, wantGlobal: 3.5,
		},
		{
			name: "deadline with quorum closes the round", quorum: 2,
			script: []scriptOp{{"arrive", 2}, {"arrive", 0}, {"expire", 0}},
			wantStats: RoundStats{Participants: all, Responders: []int{1, 4}, Stragglers: []int{3, 6}, DeadlineExpired: true,
				MeanLoss: 2.5, AdversarialUpdates: countMal(1, 4)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 2, Stragglers: 2, DeadlineExpired: true,
				UplinkWireBytes: 64, Clients: clientsOf(1, 4), StragglerIDs: []int{3, 6}},
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6",
				"client_update 1", "client_drop 3 straggler", "client_drop 6 straggler", "client_update 4", "round_end n=2"},
			wantOrder: []int{1, 4}, wantGlobal: 2.5, wantExpire: []int{3, 6},
		},
		{
			name: "deadline below quorum fails", quorum: 3,
			script:     []scriptOp{{"arrive", 1}, {"expire", 0}},
			wantErr:    ErrQuorumNotMet,
			wantEvents: []string{"round_start n=4", "client_dispatch 1", "client_dispatch 3", "client_dispatch 4", "client_dispatch 6"},
		},
		{
			name: "availability drop never dispatches", quorum: 1, availTrace: true, live: []int{1, 4, 6},
			script: []scriptOp{{"arrive", 3}, {"arrive", 2}, {"arrive", 0}},
			wantStats: RoundStats{Participants: all, Responders: []int{1, 4, 6}, Stragglers: []int{3},
				MeanLoss: 11.0 / 3, AdversarialUpdates: countMal(1, 4, 6)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 3, Stragglers: 1, UplinkWireBytes: 96,
				Clients: clientsOf(1, 4, 6), StragglerIDs: []int{3}},
			wantEvents: []string{"round_start n=4", "client_drop 3 trace", "client_dispatch 1", "client_dispatch 4", "client_dispatch 6",
				"client_update 1", "client_update 4", "client_update 6", "round_end n=3"},
			wantOrder: []int{1, 4, 6}, wantGlobal: 11.0 / 3,
		},
		{
			name: "a metrics-only sample carries no per-client detail", quorum: 2, metrics: true,
			script: []scriptOp{{"arrive", 3}, {"reject", 1}, {"arrive", 0}, {"arrive", 2}},
			wantStats: RoundStats{Participants: all, Responders: []int{1, 4, 6}, Stragglers: []int{3},
				MeanLoss: 11.0 / 3, AdversarialUpdates: countMal(1, 4, 6)},
			wantSample: obs.RoundSample{Participants: 4, Responders: 3, Stragglers: 1, UplinkWireBytes: 96 + 24},
			wantOrder:  []int{1, 4, 6}, wantGlobal: 11.0 / 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var order []int
			var sink bytes.Buffer
			rec := trace.New(&sink, trace.Config{Clock: trace.StepClock(1)})
			reg := obs.NewRegistryWithRing(4)
			var onRound []RoundStats
			cfg := RoundConfig{
				Rounds: 1, ClientsPerRound: 4, Seed: seed,
				Federation: Federation{Quorum: tc.quorum, Adversary: adv, Obs: reg, Recorder: rec, Health: health.NewMonitor(nil)},
				Aggregator: orderAgg{&order},
				InitGlobal: func(*rand.Rand) (param.Vector, error) { return make(param.Vector, 4), nil },
				OnRound:    func(s RoundStats) { onRound = append(onRound, s) },
			}
			if tc.metrics {
				cfg.Recorder, cfg.Health = nil, nil
			}
			if tc.availTrace {
				cfg.Availability = &TraceConfig{Kind: TraceDiurnal, Base: 0.5, Amp: 0.1, Period: 4}
			}
			tr := &scriptTransport{sampled: all, live: tc.live, script: tc.script}
			if tr.live == nil {
				tr.live = all
			}
			global, history, err := RunRounds(context.Background(), cfg, tr)
			if ferr := rec.Flush(); ferr != nil {
				t.Fatal(ferr)
			}
			events, rerr := trace.ReadAll(bytes.NewReader(sink.Bytes()))
			if rerr != nil {
				t.Fatal(rerr)
			}
			var got, phases []string
			for _, e := range events {
				if e.Runtime != "fake" || e.Round != 0 {
					t.Errorf("event not stamped with the transport's runtime and round: %+v", e)
				}
				if e.Kind.Phase() >= 0 {
					phases = append(phases, string(e.Kind))
					continue
				}
				line := string(e.Kind)
				switch e.Kind {
				case trace.KindRoundStart, trace.KindRoundEnd:
					line += fmt.Sprintf(" n=%d", e.N)
				case trace.KindClientDrop:
					line += fmt.Sprintf(" %d %s", e.Client, e.Reason)
					if e.Note != "" {
						line += " " + e.Note
					}
				default:
					line += fmt.Sprintf(" %d", e.Client)
				}
				got = append(got, line)
			}
			if !reflect.DeepEqual(got, tc.wantEvents) {
				t.Errorf("events:\n got %q\nwant %q", got, tc.wantEvents)
			}
			wantPhases := []string{"phase_draw", "phase_collect", "phase_ingest", "phase_reduce", "phase_planes",
				"phase_checkpoint", "phase_hooks", "phase_checkpoint_wait"}
			switch {
			case tc.metrics:
				wantPhases = nil // no recorder: nothing reads the phases
			case tc.wantErr != nil:
				wantPhases = wantPhases[:1]
			}
			if !reflect.DeepEqual(phases, wantPhases) {
				t.Errorf("phases:\n got %q\nwant %q", phases, wantPhases)
			}
			if !tc.metrics {
				folded := obs.NewRegistryWithRing(4)
				(&health.Fold{Obs: folded, Monitor: health.NewMonitor(nil)}).Replay(events)
				if f, l := folded.Snapshot().Rounds, reg.Snapshot().Rounds; !reflect.DeepEqual(f, l) {
					t.Errorf("folded trace:\n got %+v\nlive %+v", f, l)
				}
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("RunRounds error = %v, want %v", err, tc.wantErr)
				}
				if len(reg.Snapshot().Rounds) != 0 || len(onRound) != 0 {
					t.Error("a failed round was observed as completed")
				}
				return
			}
			if err != nil {
				t.Fatalf("RunRounds: %v", err)
			}
			if !reflect.DeepEqual(history, []RoundStats{tc.wantStats}) {
				t.Errorf("history:\n got %+v\nwant %+v", history, tc.wantStats)
			}
			if !reflect.DeepEqual(onRound, history) {
				t.Errorf("OnRound saw %+v, history is %+v", onRound, history)
			}
			samples := reg.Snapshot().Rounds
			if len(samples) != 1 {
				t.Fatalf("registry holds %d round samples, want 1", len(samples))
			}
			want := tc.wantSample
			want.Runtime, want.MeanLoss = "fake", tc.wantStats.MeanLoss
			want.AdversarialUpdates = tc.wantStats.AdversarialUpdates
			samples[0].DurationMS = 0
			if !reflect.DeepEqual(samples[0], want) {
				t.Errorf("sample:\n got %+v\nwant %+v", samples[0], want)
			}
			if !reflect.DeepEqual(order, tc.wantOrder) {
				t.Errorf("ingestion order = %v, want canonical %v", order, tc.wantOrder)
			}
			for _, v := range global {
				if v != tc.wantGlobal {
					t.Fatalf("global = %v, want all %v", global, tc.wantGlobal)
				}
			}
			if !reflect.DeepEqual(tr.expired, tc.wantExpire) {
				t.Errorf("Expire returned %v, want %v", tr.expired, tc.wantExpire)
			}
			// The round consumed every update last — accepted (after its
			// sink finished), refused or stale — and gave each payload back.
			for _, v := range tr.lent {
				if !param.IsIdle(v) {
					t.Errorf("a %d-element payload the round took was not given back to param's pool", len(v))
				}
			}
		})
	}
}
