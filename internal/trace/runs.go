package trace

import (
	"slices"
	"strings"
)

// Run is one federation's share of a trace: its cell key ("" for a lone
// simulator or server run) and, in file order, the events that stand.
type Run struct {
	Cell   string
	Events []Event
}

// Runs decides which events of a trace are the run — the one reading every
// consumer of a trace file goes through (`calibre trace summary` and
// `timeline`, `calibre doctor replay`, health.Fold.Replay), ordered by cell
// key.
//
// The trace is split by Event.Cell, so sweep cells that ran concurrently
// into one file come apart. Within a run, a resume at round s, or a
// round_start for a round already recorded, re-executes from s: the run's
// earlier events of rounds s and later are superseded (trimmed from the
// end), so a trace a killed run and its resumption appended to reads as
// the uninterrupted run. A torn trailing round nothing re-executed stays,
// unclosed. checkpoint_save, cell_start, cell_end and resume events stand
// as written: they are not round-ordered — a write-behind save is marked
// rounds later — and they record what the processes did, not a round.
func Runs(events []Event) []Run {
	var runs []Run
	index := map[string]int{}
	for _, e := range events {
		i, ok := index[e.Cell]
		if !ok {
			i = len(runs)
			index[e.Cell] = i
			runs = append(runs, Run{Cell: e.Cell})
		}
		r := &runs[i]
		if e.Kind == KindResume || e.Kind == KindRoundStart {
			r.Events = supersede(r.Events, e.Round)
		}
		r.Events = append(r.Events, e)
	}
	slices.SortFunc(runs, func(a, b Run) int { return strings.Compare(a.Cell, b.Cell) })
	return runs
}

// supersede drops the trailing events of rounds ≥ s that do not stand.
func supersede(events []Event, s int) []Event {
	stands := func(e Event) bool {
		switch e.Kind {
		case KindCheckpointSave, KindResume, KindCellStart, KindCellEnd:
			return true
		}
		return false
	}
	n := len(events)
	for n > 0 && (stands(events[n-1]) || events[n-1].Round >= s) {
		n--
	}
	kept := events[:n]
	for _, e := range events[n:] {
		if stands(e) {
			kept = append(kept, e)
		}
	}
	return kept
}
