package health

import (
	"cmp"
	"slices"
	"sort"

	"calibre/internal/obs"
	"calibre/internal/trace"
)

// Fold is where one federation's trace events go, and the one place they
// become obs.RoundSamples. The round core (internal/fl) emits nothing
// else: it hands Fold every event it produces, in emission order, and
// Fold passes each to Recorder and folds it into the open round. At
// round_end the round becomes a sample that Obs records (round ring,
// counters, participation) and Monitor diagnoses, with every alert going
// to OnAlert and to Obs's alert counters and suspect gauge. Replay runs
// a recorded stream through the same fold, so `calibre doctor replay`
// sees exactly what the live planes saw.
//
// The mapping, per event kind:
//
//   - round_start opens a round; N is the sampled-participant count.
//   - client_update is a responder: Bytes adds to UplinkWireBytes and
//     Dur to the client-turnaround histogram.
//   - client_drop is a straggler: Bytes (a rejected upload) adds to
//     UplinkWireBytes. A straggler-reason drop after the round dispatched
//     means its deadline expired. Availability drops are trace-reason and
//     come before any dispatch, but traces written before the flat dropout
//     rate became a trace kind label its drops straggler, and a deadline
//     only ever drops dispatched clients.
//   - client_late is a stale reply counted in LateUpdates.
//   - round_end closes the round: N responders (the other participants
//     are its stragglers), Loss the mean training loss, Dur the round
//     span (DurationMS and the round-latency histogram), Adversarial and
//     Rejected the attack accounting.
//
// Per-client detail (Clients, StragglerIDs, RejectedIDs) is collected
// only when a Monitor is attached; a metrics-only sample carries none.
// Clients come in dispatch order — the order the round core emits updates
// in, so the stable sort by dispatch position (responders without one
// last) only runs for a trace written in network-arrival order —
// StragglerIDs in drop order and RejectedIDs (drop reasons rejected and
// adversarial) ascending.
//
// Every field is optional: the zero Fold records and folds nothing. A
// Fold folds one federation; it is not safe for concurrent use, which the
// round core never needs — it emits from one goroutine.
type Fold struct {
	Recorder *trace.Recorder
	Obs      *obs.Registry
	Monitor  *Monitor
	OnAlert  func(Alert)

	// roundState is what fold carries from event to event, allocated by
	// the first event folded: a bare run, which folds nothing, carries
	// none.
	*roundState
}

type roundState struct {
	open       bool
	cur        obs.RoundSample
	dispatched []int // this round's client_dispatch order
	next       int   // dispatch position after the last update's; past the end once one came out of order
	clients    []obs.ClientSample
	responders []int
}

// Emit records e and folds it into the planes.
func (f *Fold) Emit(e trace.Event) {
	f.Recorder.Emit(e)
	if f.Obs != nil || f.Monitor != nil {
		f.fold(e, false)
	}
}

// Replay folds one federation's recorded events — one trace.Run's — as
// the live planes folded them: only the events trace.Runs says stand, so
// a trace a killed run and its resumption appended to replays as the
// uninterrupted run. A torn trailing round (a crash mid-write) is never
// observed, as the live planes never observed it.
func (f *Fold) Replay(events []trace.Event) {
	for _, r := range trace.Runs(events) {
		for _, e := range r.Events {
			f.fold(e, false)
		}
	}
}

// Warm folds a resumed run's checkpointed rounds, as the events their
// RoundStats imply, into the Monitor, OnAlert and the alert counters —
// not into Obs's ring, counters or histograms, which saw those rounds in
// the run that produced them. A checkpoint keeps federation-level facts
// only, so no per-client detail is folded.
func (f *Fold) Warm(events []trace.Event) {
	for _, e := range events {
		f.fold(e, true)
	}
}

// fold advances the open round by one event and hands a closed one to
// the planes — to the monitor only, without per-client detail, when warm
// (folding Warm's rounds).
func (f *Fold) fold(e trace.Event, warm bool) {
	if f.roundState == nil {
		f.roundState = new(roundState)
	}
	if e.Kind == trace.KindRoundStart {
		f.open = true
		f.cur = obs.RoundSample{Runtime: e.Runtime, Round: e.Round, Participants: e.N}
		f.dispatched, f.next, f.clients, f.responders = f.dispatched[:0], 0, f.clients[:0], f.responders[:0]
		return
	}
	if !f.open || e.Round != f.cur.Round {
		return
	}
	s, detail := &f.cur, f.Monitor != nil && !warm
	switch e.Kind {
	case trace.KindClientDispatch:
		f.dispatched = append(f.dispatched, e.Client)
	case trace.KindClientUpdate:
		s.UplinkWireBytes += e.Bytes
		f.responders = append(f.responders, e.Client)
		f.Obs.Histogram(obs.HistClientTurnaround).Observe(e.Dur)
		if detail {
			f.clients = append(f.clients, obs.ClientSample{ID: e.Client, Loss: e.Loss, Norm: e.Norm})
			for f.next < len(f.dispatched) && f.dispatched[f.next] != e.Client {
				f.next++
			}
			f.next++
		}
	case trace.KindClientDrop:
		s.UplinkWireBytes += e.Bytes
		s.DeadlineExpired = s.DeadlineExpired || e.Reason == trace.DropStraggler && len(f.dispatched) > 0
		if detail {
			s.StragglerIDs = append(s.StragglerIDs, e.Client)
			if e.Reason == trace.DropRejected || e.Reason == trace.DropAdversarial {
				s.RejectedIDs = append(s.RejectedIDs, e.Client)
			}
		}
	case trace.KindClientLate:
		s.LateUpdates++
	case trace.KindRoundEnd:
		f.open = false
		s.Responders, s.Stragglers, s.MeanLoss, s.DurationMS = e.N, s.Participants-e.N, e.Loss, e.Dur/1e6
		s.AdversarialUpdates, s.RejectedUpdates = e.Adversarial, e.Rejected
		if detail {
			if f.next > len(f.dispatched) { // a trace written in network-arrival order
				pos := func(c obs.ClientSample) int {
					if i := slices.Index(f.dispatched, c.ID); i >= 0 {
						return i
					}
					return len(f.dispatched)
				}
				slices.SortStableFunc(f.clients, func(a, b obs.ClientSample) int { return cmp.Compare(pos(a), pos(b)) })
			}
			s.Clients = slices.Clone(f.clients)
			sort.Ints(s.RejectedIDs)
		}
		if !warm {
			f.Obs.Histogram(obs.HistRoundLatency).Observe(e.Dur)
			f.Obs.ObserveRound(*s)
			f.Obs.AddParticipation(f.responders)
		}
		f.diagnose(*s)
	}
}

// diagnose streams one round through the Monitor, fans the alerts it
// raises out to OnAlert and folds them into Obs's alert counters and
// suspect gauge.
func (f *Fold) diagnose(s obs.RoundSample) {
	if f.Monitor == nil {
		return
	}
	for _, a := range f.Monitor.ObserveRound(s) {
		f.Obs.Counter(obs.CounterHealthAlerts).Add(1)
		if a.Severity == SevCrit {
			f.Obs.Counter(obs.CounterHealthCritical).Add(1)
		}
		if f.OnAlert != nil {
			f.OnAlert(a)
		}
	}
	f.Obs.Gauge(obs.GaugeHealthSuspects).Set(int64(f.Monitor.SuspectCount()))
}
