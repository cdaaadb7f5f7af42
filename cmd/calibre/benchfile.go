package main

// The BENCH_*.json envelopes `calibre perf` emits, read schema-generically:
// both harnesses (kernels, sweep) share the host-environment header but
// carry their own record shapes, so cross-file tooling — `calibre diff
// bench`, the golden tests — decodes the header into typed fields and
// every array-of-objects section into generic records.
//
// The header matters more than it looks: the committed baselines were
// recorded at gomaxprocs=2, and a parallel speedup reads as ≈1× on one
// core, so comparing timings across files from different environments is
// noise. benchEnvMismatch makes that mistake loud.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile is one parsed BENCH_*.json envelope.
type benchFile struct {
	Schema     string
	GOOS       string
	GOARCH     string
	GOMaxProcs int
	// Workers is the kernel-pool size; 0 when the harness does not record
	// one (sweep).
	Workers int
	// KernelImpl is which implementation of tensor's row primitives the
	// harness timed ("avx2" or "generic"); empty when the harness does not
	// record one.
	KernelImpl string
	// Note carries the harness's environment caveat, when present (e.g.
	// the single-core recording note).
	Note string
	// Sections maps each top-level array-of-objects field ("records", …)
	// to its rows as generic maps. JSON numbers decode as float64.
	Sections map[string][]map[string]any
}

// readBenchFile parses one envelope. It fails on files that do not carry
// the common header (schema + gomaxprocs) — those are not `calibre perf`
// output — but accepts any record shapes.
func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, fmt.Errorf("benchfile: %s: %w", path, err)
	}
	f := &benchFile{Sections: map[string][]map[string]any{}}
	str := func(key string) string {
		var s string
		_ = json.Unmarshal(fields[key], &s)
		return s
	}
	f.Schema = str("schema")
	f.GOOS = str("goos")
	f.GOARCH = str("goarch")
	f.Note = str("note")
	f.KernelImpl = str("kernel_impl")
	_ = json.Unmarshal(fields["gomaxprocs"], &f.GOMaxProcs)
	_ = json.Unmarshal(fields["workers"], &f.Workers)
	if f.Schema == "" || f.GOMaxProcs < 1 {
		return nil, fmt.Errorf("benchfile: %s: not a `calibre perf` envelope (schema or gomaxprocs missing)", path)
	}
	for key, rawv := range fields {
		var recs []map[string]any
		if err := json.Unmarshal(rawv, &recs); err == nil && len(recs) > 0 {
			f.Sections[key] = recs
		}
	}
	return f, nil
}

// Env renders the recording environment on one line — the provenance that
// must ride along with any derived numbers.
func (f *benchFile) Env() string {
	s := fmt.Sprintf("%s/%s gomaxprocs=%d", f.GOOS, f.GOARCH, f.GOMaxProcs)
	if f.Workers > 0 {
		s += fmt.Sprintf(" workers=%d", f.Workers)
	}
	if f.KernelImpl != "" {
		s += " kernel_impl=" + f.KernelImpl
	}
	return s
}

// SectionNames returns the section keys in sorted order.
func (f *benchFile) SectionNames() []string {
	names := make([]string, 0, len(f.Sections))
	for name := range f.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// benchEnvMismatch returns human-readable warnings for every way a and b were
// recorded under incomparable conditions. Empty means timings are fair to
// compare.
func benchEnvMismatch(a, b *benchFile) []string {
	var warns []string
	if a.Schema != b.Schema {
		warns = append(warns, fmt.Sprintf("different harnesses: schema %q vs %q — records measure different things", a.Schema, b.Schema))
	}
	if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH {
		warns = append(warns, fmt.Sprintf("different platforms: %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH))
	}
	if a.GOMaxProcs != b.GOMaxProcs {
		warns = append(warns, fmt.Sprintf("gomaxprocs %d vs %d — timings and speedups are not comparable (the committed baselines were recorded on two cores; on one, parallel speedups read as ≈1×)", a.GOMaxProcs, b.GOMaxProcs))
	}
	if a.Workers > 0 && b.Workers > 0 && a.Workers != b.Workers {
		warns = append(warns, fmt.Sprintf("kernel pool workers %d vs %d", a.Workers, b.Workers))
	}
	if a.KernelImpl != "" && b.KernelImpl != "" && a.KernelImpl != b.KernelImpl {
		warns = append(warns, fmt.Sprintf("row primitives %s vs %s — kernel timings are not comparable", a.KernelImpl, b.KernelImpl))
	}
	return warns
}
