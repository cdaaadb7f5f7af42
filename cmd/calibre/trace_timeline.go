package main

import (
	"fmt"
	"io"
	"strings"

	"calibre/internal/trace"
)

// roundSpan is one reconstructed round: its bracketing events plus every
// client event that landed inside it.
type roundSpan struct {
	cell    string
	round   int
	start   trace.Event
	end     trace.Event
	ended   bool
	updates []trace.Event
	drops   []trace.Event
}

// collectRounds groups a decoded trace into round spans, in order of
// round_start appearance. Events are matched to spans by (cell, round),
// which is unambiguous even when concurrent sweep cells interleave.
func collectRounds(events []trace.Event) []*roundSpan {
	var order []*roundSpan
	open := map[string]*roundSpan{}
	key := func(cell string, round int) string { return fmt.Sprintf("%s\x00%d", cell, round) }
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoundStart:
			rs := &roundSpan{cell: e.Cell, round: e.Round, start: e}
			open[key(e.Cell, e.Round)] = rs
			order = append(order, rs)
		case trace.KindRoundEnd:
			if rs := open[key(e.Cell, e.Round)]; rs != nil {
				rs.end, rs.ended = e, true
			}
		case trace.KindClientUpdate:
			if rs := open[key(e.Cell, e.Round)]; rs != nil {
				rs.updates = append(rs.updates, e)
			}
		case trace.KindClientDrop:
			if rs := open[key(e.Cell, e.Round)]; rs != nil {
				rs.drops = append(rs.drops, e)
			}
		}
	}
	return order
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
	rounds := collectRounds(events)
	lastCell := ""
	shown := 0
	for _, rs := range rounds {
		if *onlyRound >= 0 && rs.round != *onlyRound {
			continue
		}
		if *onlyCell != "" && rs.cell != *onlyCell {
			continue
		}
		shown++
		if rs.cell != "" && rs.cell != lastCell {
			fmt.Fprintf(w, "=== cell %s ===\n", rs.cell)
			lastCell = rs.cell
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
	if shown == 0 {
		fmt.Fprintln(w, "no round spans matched")
	}
	if truncated {
		fmt.Fprintln(w, "note: trace ends mid-record (torn tail tolerated)")
	}
	return nil
}
