package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"calibre/internal/trace"
)

// traceStats aggregates one trace (or one cell's slice of it).
type traceStats struct {
	events    int
	runtimes  map[string]bool
	rounds    []int64 // round_end durations, ns
	turns     []int64 // client_update turnarounds, ns
	updates   int
	wire      map[string]int
	uplink    int64
	drops     map[trace.DropReason]int
	saves     int
	stall     int64 // Σ checkpoint_save dur: time round loops were blocked on checkpoints
	maxStall  int64
	resumes   int
	cellSpans int
}

func newTraceStats() *traceStats {
	return &traceStats{
		runtimes: map[string]bool{},
		wire:     map[string]int{},
		drops:    map[trace.DropReason]int{},
	}
}

func (s *traceStats) add(e trace.Event) {
	s.events++
	if e.Runtime != "" {
		s.runtimes[e.Runtime] = true
	}
	switch e.Kind {
	case trace.KindRoundEnd:
		s.rounds = append(s.rounds, e.Dur)
	case trace.KindClientUpdate:
		s.updates++
		s.turns = append(s.turns, e.Dur)
		if e.Wire != "" {
			s.wire[e.Wire]++
		}
		s.uplink += e.Bytes
	case trace.KindClientDrop:
		s.drops[e.Reason]++
		s.uplink += e.Bytes // a rejected upload still crossed the uplink
	case trace.KindCheckpointSave:
		s.saves++
		s.stall += e.Dur
		s.maxStall = max(s.maxStall, e.Dur)
	case trace.KindResume:
		s.resumes++
	case trace.KindCellStart:
		s.cellSpans++
	}
}

// quantile returns the q-quantile (0..1) of ns by nearest-rank over a
// sorted copy; 0 when empty.
func quantile(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func spanLine(name string, ns []int64) string {
	if len(ns) == 0 {
		return fmt.Sprintf("%s:   none", name)
	}
	var sum int64
	for _, d := range ns {
		sum += d
	}
	return fmt.Sprintf("%s:   %d spans  (mean %s  p50 %s  p95 %s  max %s)",
		name, len(ns),
		formatNS(sum/int64(len(ns))),
		formatNS(quantile(ns, 0.50)),
		formatNS(quantile(ns, 0.95)),
		formatNS(quantile(ns, 1.0)))
}

func (s *traceStats) write(w io.Writer, indent string) {
	rts := make([]string, 0, len(s.runtimes))
	for rt := range s.runtimes {
		rts = append(rts, rt)
	}
	sort.Strings(rts)
	fmt.Fprintf(w, "%sevents:   %d  (runtimes: %s)\n", indent, s.events, strings.Join(rts, ","))
	fmt.Fprintf(w, "%s%s\n", indent, spanLine("rounds", s.rounds))
	wires := make([]string, 0, len(s.wire))
	for k := range s.wire {
		wires = append(wires, k)
	}
	sort.Strings(wires)
	wireParts := make([]string, 0, len(wires))
	for _, k := range wires {
		wireParts = append(wireParts, fmt.Sprintf("%s %d", k, s.wire[k]))
	}
	wireDesc := "none"
	if len(wireParts) > 0 {
		wireDesc = strings.Join(wireParts, " / ")
	}
	fmt.Fprintf(w, "%supdates:  %d  (wire: %s, uplink %s)\n", indent, s.updates, wireDesc, formatBytes(s.uplink))
	fmt.Fprintf(w, "%s%s\n", indent, spanLine("clients", s.turns))
	total := 0
	reasons := make([]string, 0, len(s.drops))
	for r := range s.drops {
		reasons = append(reasons, string(r))
	}
	sort.Strings(reasons)
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		n := s.drops[trace.DropReason(r)]
		total += n
		parts = append(parts, fmt.Sprintf("%s %d", r, n))
	}
	if total == 0 {
		fmt.Fprintf(w, "%sdrops:    0\n", indent)
	} else {
		fmt.Fprintf(w, "%sdrops:    %d  (%s)\n", indent, total, strings.Join(parts, ", "))
	}
	if s.saves > 0 || s.resumes > 0 {
		fmt.Fprintf(w, "%sdurable:  %d checkpoint saves (loop stalled %s total, max %s), %d resumes\n",
			indent, s.saves, formatNS(s.stall), formatNS(s.maxStall), s.resumes)
	}
}

func runSummary(args []string, w io.Writer) error {
	fs := newFlagSet("trace summary")
	perCell := fs.Bool("cells", false, "break the summary down per sweep cell")
	path, err := parseTraceArgs(fs, args)
	if err != nil {
		return err
	}
	events, truncated, err := loadTrace(path)
	if err != nil {
		return err
	}
	total := newTraceStats()
	cells := map[string]*traceStats{}
	var cellOrder []string
	for _, e := range events {
		total.add(e)
		if e.Cell != "" {
			cs, ok := cells[e.Cell]
			if !ok {
				cs = newTraceStats()
				cells[e.Cell] = cs
				cellOrder = append(cellOrder, e.Cell)
			}
			cs.add(e)
		}
	}
	total.write(w, "")
	if len(cells) > 0 {
		fmt.Fprintf(w, "cells:    %d\n", len(cells))
	}
	if truncated {
		fmt.Fprintln(w, "note:     trace ends mid-record (torn tail tolerated; the writer likely crashed)")
	}
	if *perCell {
		sort.Strings(cellOrder)
		for _, key := range cellOrder {
			fmt.Fprintf(w, "\ncell %s\n", key)
			cells[key].write(w, "  ")
		}
	}
	return nil
}
