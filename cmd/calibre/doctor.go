package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/trace"
)

// `calibre doctor` diagnoses a federation's health: it feeds observed
// round streams through the streaming detectors of internal/health and
// renders the ranked diagnosis — alerts in raise order, the
// suspected-adversary set, and the per-client health table, least healthy
// first.
//
//	calibre doctor replay FILE [-cell KEY] [-health SPEC] [-json]
//	calibre doctor live   -addr HOST:PORT [-health SPEC] [-interval D] [-timeout D] [-once] [-json]
//
// replay reads a flight-recorder trace (`calibre serve` / `calibre sweep
// run` -trace-out; FILE may be "-" for stdin), folds each federation's
// events into its round stream through the fold the live planes run
// (health.Fold), and diagnoses it after the fact — sweeps are split per
// cell. The verdict is a pure function of the trace bytes: two replays of
// the same file render byte-identical reports, and replaying a trace
// written by a monitored run reproduces that run's live diagnosis — a
// trace a killed run and its resumption appended to included, which
// replays as the uninterrupted run.
//
// live polls a running federation's -metrics-addr endpoint (the /metrics
// JSON snapshot), streams newly completed rounds through its own monitor,
// prints alerts as they trip, and renders the final diagnosis when the
// run ends (or immediately with -once). Per-client detectors (update-norm
// outliers, per-client scores) need per-client detail in the metrics
// ring, which producers include when running with -health; without it the
// federation-level detectors (loss, quorum) still apply.
//
// Norm-bearing traces require the producing run to have had a health
// monitor or flight recorder attached — exactly the runs worth
// diagnosing.

// doctorHealthFlag is the consumer-side -health: unlike the producers',
// it defaults to the default rule set — a doctor without detectors
// diagnoses nothing.
func doctorHealthFlag(fs *flag.FlagSet) *string {
	return fs.String("health", "default", `detector rules: "default", "all", or a spec like "non-finite,norm-z(3.5,2)" (see internal/health)`)
}

// runReplay diagnoses a recorded trace offline.
func runReplay(args []string, w io.Writer) error {
	fs := newFlagSet("doctor replay")
	var (
		cell    = fs.String("cell", "", "diagnose only this sweep cell key; empty diagnoses every federation in the trace")
		spec    = doctorHealthFlag(fs)
		jsonOut = fs.Bool("json", false, "emit the diagnosis as JSON instead of the text report")
	)
	path, err := parseTraceArgs(fs, args)
	if err != nil {
		return err
	}
	hc, err := health.ParseRules(*spec)
	if err != nil {
		return err
	}
	events, truncated, err := loadTrace(path)
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintln(w, "note: trace ends mid-record (crash or live file); diagnosing the intact prefix")
	}

	// Split the event stream per federation: every event a sweep cell's
	// simulation emits carries the cell key, a lone server/sim run none.
	byCell := make(map[string][]trace.Event)
	for _, e := range events {
		byCell[e.Cell] = append(byCell[e.Cell], e)
	}
	if *cell != "" {
		evs, ok := byCell[*cell]
		if !ok {
			return fmt.Errorf("replay: no events for cell %q in %s", *cell, path)
		}
		byCell = map[string][]trace.Event{*cell: evs}
	}
	keys := make([]string, 0, len(byCell))
	diagnoses := make(map[string]health.Diagnosis, len(byCell))
	for k, evs := range byCell {
		mon := health.NewMonitor(&hc)
		(&health.Fold{Monitor: mon}).Replay(evs)
		if d := mon.Diagnosis(); d.Rounds > 0 {
			keys = append(keys, k)
			diagnoses[k] = d
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("replay: no completed rounds in %s", path)
	}
	sort.Strings(keys)
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if len(keys) == 1 && keys[0] == "" {
			return enc.Encode(diagnoses[""])
		}
		return enc.Encode(diagnoses)
	}
	for i, k := range keys {
		if k != "" || len(keys) > 1 {
			if i > 0 {
				fmt.Fprintln(w)
			}
			name := k
			if name == "" {
				name = "(no cell)"
			}
			fmt.Fprintf(w, "== cell %s ==\n", name)
		}
		if err := diagnoses[k].WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// runLive attaches the detectors to a running federation's metrics endpoint.
func runLive(args []string, w io.Writer) error {
	fs := newFlagSet("doctor live")
	var (
		p       = addPollFlags(fs, "127.0.0.1:9100", "diagnose one snapshot and exit")
		spec    = doctorHealthFlag(fs)
		jsonOut = fs.Bool("json", false, "emit the final diagnosis as JSON (suppresses live alert lines)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	hc, err := health.ParseRules(*spec)
	if err != nil {
		return err
	}
	mon := health.NewMonitor(&hc)
	// The metrics ring is chronological and overlaps between polls;
	// (runtime, round) identifies a completed round exactly once.
	seen := make(map[string]bool)
	gone, err := p.poll("live", func(snap obs.Snapshot) error {
		for _, rs := range snap.Rounds {
			key := rs.Runtime + "\x00" + strconv.Itoa(rs.Round)
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, a := range mon.ObserveRound(rs) {
				if !*jsonOut {
					fmt.Fprintln(w, a)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// However the poll ended — -once, a signal, the endpoint gone because
	// the federation finished — render what the run added up to.
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(mon.Diagnosis())
	}
	if gone {
		fmt.Fprintln(w, "live: metrics endpoint gone (run finished?) — final diagnosis:")
	}
	return mon.Diagnosis().WriteText(w)
}
