package health

import (
	"sort"

	"calibre/internal/obs"
	"calibre/internal/trace"
)

// ReplaySamples reconstructs, from one federation's flight-recorder
// events, the per-round obs.RoundSample stream the producing runtime fed
// its live monitor. Feeding the result through a fresh Monitor with the
// same Config reproduces the live diagnosis — that is `calibre doctor replay`'s
// replay mode, pinned by fl's TestHealthRingReplayMatchesLive and
// cmd/calibre's TestDoctorReplayMatchesLiveMonitor.
//
// The mapping inverts what the runtimes emit (see internal/fl and
// internal/flnet):
//
//   - round_start opens a round; N is the sampled-participant count.
//   - client_update contributes one ClientSample (Loss, Norm). The round
//     core emits them in slot order for both runtimes (fl.Round.Advance),
//     which is dispatch order — the order the live sample used; the
//     stable sort at round_end only moves samples in a trace whose
//     events were written in some other order.
//   - client_drop lands the client in StragglerIDs; reasons rejected and
//     adversarial are ingress rejections and additionally land it in
//     RejectedIDs (sorted, as at ingress).
//   - round_end closes the round: N is the responder count, Loss the
//     round's mean training loss.
//
// Events are expected in emission order for a single federation (one
// cell); split multi-cell sweep traces by Event.Cell first. A torn
// trailing round (crash mid-write) is dropped, mirroring the live
// monitor, which only ever observes completed rounds.
func ReplaySamples(events []trace.Event) []obs.RoundSample {
	var out []obs.RoundSample
	var (
		open     bool
		sample   obs.RoundSample
		dispatch map[int]int // client → dispatch slot this round
		arrival  map[int]int // client → update-event arrival index
	)
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoundStart:
			open = true
			sample = obs.RoundSample{Runtime: e.Runtime, Round: e.Round, Participants: e.N}
			dispatch = make(map[int]int)
			arrival = make(map[int]int)
		case trace.KindClientDispatch:
			if open && e.Round == sample.Round {
				dispatch[e.Client] = len(dispatch)
			}
		case trace.KindClientUpdate:
			if open && e.Round == sample.Round {
				arrival[e.Client] = len(sample.Clients)
				sample.Clients = append(sample.Clients,
					obs.ClientSample{ID: e.Client, Loss: e.Loss, Norm: e.Norm})
			}
		case trace.KindClientDrop:
			if !open || e.Round != sample.Round {
				continue
			}
			sample.Stragglers++
			sample.StragglerIDs = append(sample.StragglerIDs, e.Client)
			switch e.Reason {
			case trace.DropRejected, trace.DropAdversarial:
				sample.RejectedIDs = append(sample.RejectedIDs, e.Client)
			case trace.DropStraggler:
				// The server's only straggler-drop producer is the round
				// deadline expiring with quorum met, so the drop implies
				// the flag the trace does not carry explicitly.
				if e.Runtime == "server" {
					sample.DeadlineExpired = true
				}
			}
		case trace.KindRoundEnd:
			if !open || e.Round != sample.Round {
				continue
			}
			open = false
			sample.Responders = e.N
			sample.MeanLoss = e.Loss
			// The live sample lists responders in dispatch order, and so
			// does a trace the round core wrote; restore it for any other
			// (ties — no dispatch record — keep file order).
			d, a := dispatch, arrival
			sort.SliceStable(sample.Clients, func(i, j int) bool {
				di, iOK := d[sample.Clients[i].ID]
				dj, jOK := d[sample.Clients[j].ID]
				if iOK && jOK {
					return di < dj
				}
				if iOK != jOK {
					return iOK
				}
				return a[sample.Clients[i].ID] < a[sample.Clients[j].ID]
			})
			sort.Ints(sample.RejectedIDs)
			out = append(out, sample)
		}
	}
	return out
}
