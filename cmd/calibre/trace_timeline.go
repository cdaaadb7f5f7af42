package main

import (
	"fmt"
	"io"
	"strings"

	"calibre/internal/trace"
)

// roundSpan is one reconstructed round: its bracketing events, every
// client event that landed inside it, and its phases.
type roundSpan struct {
	round   int
	start   trace.Event
	end     trace.Event
	ended   bool
	updates []trace.Event
	drops   []trace.Event

	phased bool                     // the round has phase events
	phases [len(trace.Phases)]int64 // Σ Dur per phase, in trace.Phases order
	from   int64                    // where the round's phase tiling starts: phase_draw's TS
	to     int64                    // where it ends: the last phase's TS+Dur
	// resumed: a resume came after the round, so the next one ran in
	// another process, on another clock.
	resumed bool
}

// collectRounds groups one run's events into round spans, in order of
// round_start. trace.Runs has dropped what a re-execution superseded, so a
// run records each round once, and its events land after its round_start.
func collectRounds(run trace.Run) []*roundSpan {
	var spans []*roundSpan
	for _, e := range run.Events {
		switch {
		case e.Kind == trace.KindRoundStart:
			spans = append(spans, &roundSpan{round: e.Round, start: e})
			continue
		case e.Kind == trace.KindResume && len(spans) > 0:
			spans[len(spans)-1].resumed = true
		}
		if len(spans) == 0 || spans[len(spans)-1].round != e.Round {
			continue
		}
		switch rs := spans[len(spans)-1]; e.Kind {
		case trace.KindRoundEnd:
			rs.end, rs.ended = e, true
		case trace.KindClientUpdate:
			rs.updates = append(rs.updates, e)
		case trace.KindClientDrop:
			rs.drops = append(rs.drops, e)
		default:
			if p := e.Kind.Phase(); p >= 0 {
				if e.Kind == trace.KindPhaseDraw {
					rs.from = e.TS
				}
				rs.phased = true
				rs.phases[p] += e.Dur
				rs.to = e.TS + e.Dur // the phases tile the round in emission order
			}
		}
	}
	return spans
}

// wall is the round's iteration wall time: from the start of its draw to
// the start of the next round's, or — for the last round its process ran —
// to the end of its last phase.
func (rs *roundSpan) wall(next *roundSpan) int64 {
	if next != nil && next.phased && !rs.resumed && next.from >= rs.to {
		return next.from - rs.from
	}
	return rs.to - rs.from
}

// gantt renders one client span as an ASCII bar inside the round's time
// window: '#' covers the client's dispatch->accept turnaround, '.' the
// rest of the round.
func gantt(winStart, winEnd, barStart, barEnd int64, width int) string {
	if winEnd <= winStart {
		return strings.Repeat("#", width)
	}
	scale := func(ts int64) int {
		p := int(float64(ts-winStart) / float64(winEnd-winStart) * float64(width))
		return min(max(p, 0), width-1)
	}
	from, to := scale(barStart), scale(barEnd)
	var b strings.Builder
	for i := 0; i < width; i++ {
		if i >= from && i <= to {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

func runTimeline(args []string, w io.Writer) error {
	fs := newFlagSet("trace timeline")
	onlyRound := fs.Int("round", -1, "render only this round (-1 = all)")
	onlyCell := fs.String("cell", "", "render only this sweep cell")
	width := fs.Int("width", 40, "gantt bar width in characters")
	path, err := parseTraceArgs(fs, args)
	if err != nil {
		return err
	}
	if *width < 4 {
		*width = 4
	}
	events, truncated, err := loadTrace(path)
	if err != nil {
		return err
	}
	shown := 0
	for _, run := range trace.Runs(events) {
		if *onlyCell != "" && run.Cell != *onlyCell {
			continue
		}
		cellHeader := run.Cell != ""
		for _, rs := range collectRounds(run) {
			if *onlyRound >= 0 && rs.round != *onlyRound {
				continue
			}
			shown++
			if cellHeader {
				fmt.Fprintf(w, "=== cell %s ===\n", run.Cell)
				cellHeader = false
			}
			header := fmt.Sprintf("round %d  sampled %d", rs.round, rs.start.N)
			winStart, winEnd := rs.start.TS, rs.start.TS
			if rs.ended {
				winEnd = rs.end.TS
				header += fmt.Sprintf("  aggregated %d  span %s  loss %.4g", rs.end.N, formatNS(rs.end.Dur), rs.end.Loss)
			} else {
				header += "  [round never closed — torn trace?]"
				for _, u := range rs.updates {
					if u.TS > winEnd {
						winEnd = u.TS
					}
				}
			}
			fmt.Fprintln(w, header)
			for _, u := range rs.updates {
				barEnd := u.TS
				barStart := barEnd - u.Dur
				fmt.Fprintf(w, "  client %-4d |%s|  %s  %s %s\n",
					u.Client, gantt(winStart, winEnd, barStart, barEnd, *width),
					formatNS(u.Dur), u.Wire, formatBytes(u.Bytes))
			}
			for _, d := range rs.drops {
				note := ""
				if d.Note != "" {
					note = "  (" + d.Note + ")"
				}
				fmt.Fprintf(w, "  client %-4d %s drop: %s%s\n",
					d.Client, strings.Repeat("x", 4), d.Reason, note)
			}
		}
	}
	if shown == 0 {
		fmt.Fprintln(w, "no round spans matched")
	}
	if truncated {
		fmt.Fprintln(w, "note: trace ends mid-record (torn tail tolerated)")
	}
	return nil
}
