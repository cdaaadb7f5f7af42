package main

import (
	"encoding/csv"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"calibre/internal/store"
)

// `calibre ckpt` operates on durable checkpoint directories written by
// `calibre serve -checkpoint-dir` (and any other internal/store user):
// listing versions, inspecting one snapshot, diffing two, and exporting a
// snapshot to interchange formats.
//
//	calibre ckpt list    -dir DIR
//	calibre ckpt inspect -dir DIR [-version N]       (default: latest)
//	calibre ckpt diff    -dir DIR -a N -b M
//	calibre ckpt export  -dir DIR [-version N] -format csv|gob [-out FILE]
//
// export -format csv writes the global parameter vector as index,value
// rows (full round-trip precision); -format gob writes the whole snapshot
// gob-encoded for consumption by other Go tooling and requires -out.

// openStore parses a subcommand's flags — every one of them takes -dir —
// and opens the directory it names.
func openStore(fs *flag.FlagSet, args []string) (*store.Store, error) {
	dir := fs.String("dir", "", "checkpoint directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *dir == "" {
		return nil, errors.New("missing -dir")
	}
	if _, err := os.Stat(*dir); err != nil {
		return nil, fmt.Errorf("checkpoint directory: %w", err)
	}
	return store.Open(*dir)
}

// open resolves -version: 0 means latest.
func open(st *store.Store, version int) (*store.Snapshot, int, error) {
	if version == 0 {
		return st.Latest()
	}
	snap, err := st.Open(version)
	return snap, version, err
}

func runList(args []string) error {
	fs := newFlagSet("ckpt list")
	st, err := openStore(fs, args)
	if err != nil {
		return err
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	fmt.Printf("%-8s %-7s %-8s %-10s %-16s %-10s %s\n", "version", "round", "params", "size", "fingerprint", "runtime", "saved")
	for _, e := range entries {
		saved := e.ModTime.Format("2006-01-02 15:04:05")
		if e.Err != nil {
			mark := "[corrupt]"
			if errors.Is(e.Err, store.ErrRetiredIncremental) {
				mark = "[incremental, no longer read]"
			}
			fmt.Printf("%-8d %-7s %-8s %-10d %-16s %-10s %s  %s\n", e.Version, "-", "-", e.Size, "-", "-", saved, mark)
			continue
		}
		fmt.Printf("%-8d %-7d %-8d %-10d %-16s %-10s %s\n", e.Version, e.Round, e.Params, e.Size,
			e.Meta.Fingerprint, e.Meta.Runtime, saved)
	}
	return nil
}

// vectorStats summarizes a parameter vector for inspection output.
func vectorStats(v []float64) (l2, minV, maxV, mean float64) {
	if len(v) == 0 {
		return 0, 0, 0, 0
	}
	minV, maxV = v[0], v[0]
	var sum, ss float64
	for _, x := range v {
		sum += x
		ss += x * x
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return math.Sqrt(ss), minV, maxV, sum / float64(len(v))
}

func runInspect(args []string) error {
	fs := newFlagSet("ckpt inspect")
	version := fs.Int("version", 0, "snapshot version (0 = latest)")
	tail := fs.Int("tail", 3, "history rounds to print")
	st, err := openStore(fs, args)
	if err != nil {
		return err
	}
	snap, v, err := open(st, *version)
	if err != nil {
		return err
	}
	state := &snap.State
	fmt.Printf("version:      %d\n", v)
	fmt.Printf("runtime:      %s\n", snap.Meta.Runtime)
	fmt.Printf("seed:         %d\n", snap.Meta.Seed)
	fmt.Printf("fingerprint:  %s\n", snap.Meta.Fingerprint)
	fmt.Printf("round:        %d (history: %d rounds)\n", state.Round, len(state.History))
	l2, minV, maxV, mean := vectorStats(state.Global)
	fmt.Printf("params:       %d  (l2=%.6g min=%.6g max=%.6g mean=%.6g)\n", len(state.Global), l2, minV, maxV, mean)
	fmt.Printf("pool sizes:   %v\n", state.EligibleCounts)
	if len(state.Rows) > 0 {
		fmt.Printf("client rows:  %d\n", len(state.Rows))
	}
	if *tail > 0 && len(state.History) > 0 {
		from := len(state.History) - *tail
		if from < 0 {
			from = 0
		}
		fmt.Println("history tail:")
		for _, h := range state.History[from:] {
			fmt.Println("  ", h)
		}
	}
	return nil
}

func runDiff(args []string) error {
	fs := newFlagSet("ckpt diff")
	av := fs.Int("a", 0, "first version")
	bv := fs.Int("b", 0, "second version")
	st, err := openStore(fs, args)
	if err != nil {
		return err
	}
	if *av == 0 || *bv == 0 {
		return errors.New("diff needs -a and -b versions")
	}
	a, err := st.Open(*av)
	if err != nil {
		return err
	}
	b, err := st.Open(*bv)
	if err != nil {
		return err
	}
	fmt.Printf("v%d (round %d) → v%d (round %d): %+d rounds\n",
		*av, a.State.Round, *bv, b.State.Round, b.State.Round-a.State.Round)
	if a.Meta.Fingerprint != b.Meta.Fingerprint {
		fmt.Printf("fingerprints differ: %s vs %s (different federations!)\n", a.Meta.Fingerprint, b.Meta.Fingerprint)
	}
	if len(a.State.Global) != len(b.State.Global) {
		fmt.Printf("param dimensions differ: %d vs %d\n", len(a.State.Global), len(b.State.Global))
		return nil
	}
	var ss, linf float64
	changed := 0
	for i, x := range a.State.Global {
		d := b.State.Global[i] - x
		ss += d * d
		if ad := math.Abs(d); ad > linf {
			linf = ad
		}
		if math.Float64bits(x) != math.Float64bits(b.State.Global[i]) {
			changed++
		}
	}
	fmt.Printf("params:  %d total, %d changed\n", len(a.State.Global), changed)
	fmt.Printf("drift:   l2=%.6g  max|Δ|=%.6g\n", math.Sqrt(ss), linf)
	return nil
}

func runExport(args []string) error {
	fs := newFlagSet("ckpt export")
	version := fs.Int("version", 0, "snapshot version (0 = latest)")
	format := fs.String("format", "csv", "export format: csv | gob")
	out := fs.String("out", "", "output file (default stdout; required for gob)")
	st, err := openStore(fs, args)
	if err != nil {
		return err
	}
	snap, v, err := open(st, *version)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"index", "value"}); err != nil {
			return err
		}
		for i, x := range snap.State.Global {
			if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(x, 'g', -1, 64)}); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	case "gob":
		if *out == "" {
			return errors.New("gob export is binary; pass -out FILE")
		}
		if err := gob.NewEncoder(w).Encode(snap); err != nil {
			return fmt.Errorf("gob encode: %w", err)
		}
	default:
		return fmt.Errorf("unknown format %q (want csv or gob)", *format)
	}
	if *out != "" {
		fmt.Printf("exported v%d (%s) to %s\n", v, *format, *out)
	}
	return nil
}
