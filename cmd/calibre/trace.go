package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"calibre/internal/trace"
)

// `calibre trace` reads flight-recorder traces — what `calibre serve` and
// `calibre sweep run|resume` append to their -trace-out file, and what a
// simulator writes when handed a trace.Recorder (internal/trace,
// length-prefixed JSONL) — and renders them offline: aggregate summaries,
// an ASCII per-round timeline, and an event grep.
//
//	calibre trace summary  FILE [-cells]
//	calibre trace timeline FILE [-round N] [-cell KEY] [-width N]
//	calibre trace grep     FILE [-kind K] [-round N] [-client N] [-reason R] [-cell KEY] [-count]
//
// summary and timeline read the events trace.Runs says stand: per sweep
// cell, and a file a killed run and its resumption appended to as the
// uninterrupted run. summary ends with the phase table, where the rounds'
// time went. grep filters everything that was written.
//
// FILE may be "-" for stdin. A torn trailing record (a crash mid-write)
// is tolerated everywhere: the decoded prefix is used and the truncation
// is reported in the output, never as a hard error.

// parseTraceArgs parses "FILE [flags]" — the positional first, as the
// usage lines show it — and returns FILE. Without a FILE the flags are
// still parsed, so -h answers before the missing file is reported.
func parseTraceArgs(fs *flag.FlagSet, args []string) (string, error) {
	if len(args) == 0 || args[0] == "" || (args[0] != "-" && args[0][0] == '-') {
		if err := fs.Parse(args); err != nil {
			return "", err
		}
		return "", errors.New("missing trace file (or - for stdin)")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return "", err
	}
	if fs.NArg() > 0 {
		return "", fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return args[0], nil
}

// loadTrace decodes FILE (or stdin for "-"), tolerating a torn tail.
// truncated reports whether the trace ended mid-record.
func loadTrace(path string) (events []trace.Event, truncated bool, err error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		r = f
	}
	events, err = trace.ReadAll(r)
	if errors.Is(err, trace.ErrTruncated) {
		return events, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return events, false, nil
}

// formatNS renders a nanosecond duration compactly for tables.
func formatNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
