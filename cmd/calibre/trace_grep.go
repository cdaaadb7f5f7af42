package main

import (
	"encoding/json"
	"fmt"
	"io"

	"calibre/internal/trace"
)

func runGrep(args []string, w io.Writer) error {
	fs := newFlagSet("trace grep")
	kind := fs.String("kind", "", "event kind (round_start, client_drop, ...)")
	round := fs.Int("round", -1, "round filter (-1 = any)")
	client := fs.Int("client", -1, "client filter (-1 = any)")
	reason := fs.String("reason", "", "drop reason filter (trace|straggler|rejected|adversarial)")
	cell := fs.String("cell", "", "sweep cell key filter")
	count := fs.Bool("count", false, "print only the number of matching events")
	path, err := parseTraceArgs(fs, args)
	if err != nil {
		return err
	}
	events, truncated, err := loadTrace(path)
	if err != nil {
		return err
	}
	matched := 0
	for _, e := range events {
		if *kind != "" && e.Kind != trace.Kind(*kind) {
			continue
		}
		if *round >= 0 && e.Round != *round {
			continue
		}
		if *client >= 0 && e.Client != *client {
			continue
		}
		if *reason != "" && e.Reason != trace.DropReason(*reason) {
			continue
		}
		if *cell != "" && e.Cell != *cell {
			continue
		}
		matched++
		if !*count {
			line, err := json.Marshal(e)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\n", line)
		}
	}
	if *count {
		fmt.Fprintln(w, matched)
	}
	if truncated && !*count {
		fmt.Fprintln(w, "note: trace ends mid-record (torn tail tolerated)")
	}
	return nil
}
