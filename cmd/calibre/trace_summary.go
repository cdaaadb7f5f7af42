package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"calibre/internal/trace"
)

// traceStats aggregates the events of a trace that stand (or of one cell's
// run).
type traceStats struct {
	events   int
	runtimes map[string]bool
	rounds   []int64 // round_end durations, ns
	turns    []int64 // client_update turnarounds, ns
	updates  int
	wire     map[string]int
	uplink   int64
	drops    map[trace.DropReason]int
	saves    int
	resumes  int
	// phases[p] and residue hold one entry per round that has phase
	// events: its time in trace.Phases[p], and its iteration's wall time
	// less the sum of its phases.
	phases  [len(trace.Phases)][]int64
	residue []int64
}

func newTraceStats() *traceStats {
	return &traceStats{
		runtimes: map[string]bool{},
		wire:     map[string]int{},
		drops:    map[trace.DropReason]int{},
	}
}

// add counts the events of one run that stand.
func (s *traceStats) add(run trace.Run) {
	spans := collectRounds(run)
	for i, rs := range spans {
		if !rs.phased {
			continue
		}
		var next *roundSpan
		if i+1 < len(spans) {
			next = spans[i+1]
		}
		residue := rs.wall(next)
		for p, d := range rs.phases {
			s.phases[p] = append(s.phases[p], d)
			residue -= d
		}
		s.residue = append(s.residue, residue)
	}
	for _, e := range run.Events {
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
		case trace.KindResume:
			s.resumes++
		}
	}
}

// quantile returns the q-quantile (0..1) of ns by nearest rank — the
// ⌈q·n⌉-th smallest — over a sorted copy; 0 when empty.
func quantile(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := slices.Clone(ns)
	slices.Sort(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[max(rank, 1)-1]
}

func sum(ns []int64) (total int64) {
	for _, d := range ns {
		total += d
	}
	return total
}

func spanLine(name string, ns []int64) string {
	if len(ns) == 0 {
		return fmt.Sprintf("%s:   none", name)
	}
	return fmt.Sprintf("%s:   %d spans  (mean %s  p50 %s  p95 %s  max %s)",
		name, len(ns),
		formatNS(sum(ns)/int64(len(ns))),
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
		stall := ""
		if len(s.residue) > 0 {
			// What checkpoints cost the loop: each round's hand-off plus
			// its wait on an earlier save (and the final drain).
			ckpt, wait := s.phases[trace.KindPhaseCheckpoint.Phase()], s.phases[trace.KindPhaseCheckpointWait.Phase()]
			var maxStall int64
			for i := range ckpt {
				maxStall = max(maxStall, ckpt[i]+wait[i])
			}
			stall = fmt.Sprintf(" (loop stalled %s total, max %s)", formatNS(sum(ckpt)+sum(wait)), formatNS(maxStall))
		}
		fmt.Fprintf(w, "%sdurable:  %d checkpoint saves%s, %d resumes\n", indent, s.saves, stall, s.resumes)
	}
	s.writePhases(w, indent)
}

// writePhases prints where the rounds' time went: per phase its total, its
// share of the rounds' wall time, and its mean and max per round, then
// the residue no phase accounts for. Nothing without phase events.
func (s *traceStats) writePhases(w io.Writer, indent string) {
	n := len(s.residue)
	if n == 0 {
		return
	}
	wall := sum(s.residue)
	for _, ns := range s.phases {
		wall += sum(ns)
	}
	fmt.Fprintf(w, "%sphases:   %d rounds, %s wall\n", indent, n, formatNS(wall))
	fmt.Fprintf(w, "%s  %-16s %9s %7s %9s %9s\n", indent, "phase", "total", "share", "mean", "max")
	row := func(name string, ns []int64) {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(sum(ns)) / float64(wall)
		}
		fmt.Fprintf(w, "%s  %-16s %9s %6.1f%% %9s %9s\n", indent, name,
			formatNS(sum(ns)), share, formatNS(sum(ns)/int64(n)), formatNS(quantile(ns, 1)))
	}
	for p, k := range trace.Phases {
		row(strings.TrimPrefix(string(k), "phase_"), s.phases[p])
	}
	row("residue", s.residue)
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
	// The totals and each cell's block count the events that stand, so a
	// killed+resumed trace reads as the uninterrupted run.
	runs := trace.Runs(events)
	total, cells := newTraceStats(), 0
	for _, r := range runs {
		total.add(r)
		if r.Cell != "" {
			cells++
		}
	}
	total.write(w, "")
	if cells > 0 {
		fmt.Fprintf(w, "cells:    %d\n", cells)
	}
	if truncated {
		fmt.Fprintln(w, "note:     trace ends mid-record (torn tail tolerated; the writer likely crashed)")
	}
	for _, r := range runs {
		if *perCell && r.Cell != "" {
			cs := newTraceStats()
			cs.add(r)
			fmt.Fprintf(w, "\ncell %s\n", r.Cell)
			cs.write(w, "  ")
		}
	}
	return nil
}
