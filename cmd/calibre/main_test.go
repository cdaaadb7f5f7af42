package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/param"
	"calibre/internal/sweep"
)

// leaves lists every leaf of the dispatch table as its argument path.
func leaves(prefix []string, cmds []command) [][]string {
	var out [][]string
	for _, c := range cmds {
		path := append(append([]string(nil), prefix...), c.name)
		if c.sub != nil {
			out = append(out, leaves(path, c.sub)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// TestDispatch: no arguments and an unknown command are errors that name
// the commands; -h at every level — the root, every group, every leaf —
// ends cleanly (flag.ErrHelp, which main exits 0 on) without running
// anything.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}} {
		err := run(args)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Fatalf("run(%v) = %v, want a usage error", args, err)
		}
		for _, c := range commands {
			if !strings.Contains(err.Error(), c.name) {
				t.Errorf("run(%v) error does not name %q: %v", args, c.name, err)
			}
		}
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("calibre -h = %v, want flag.ErrHelp", err)
	}
	for _, c := range commands {
		if c.sub == nil {
			continue
		}
		if err := run([]string{c.name, "-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("calibre %s -h = %v, want flag.ErrHelp", c.name, err)
		}
		err := run([]string{c.name, "frobnicate"})
		if err == nil {
			t.Fatalf("calibre %s frobnicate accepted", c.name)
		}
		for _, sub := range c.sub {
			if !strings.Contains(err.Error(), sub.name) {
				t.Errorf("calibre %s frobnicate: error does not name %q: %v", c.name, sub.name, err)
			}
		}
	}
	all := leaves(nil, commands)
	if len(all) < 20 {
		t.Fatalf("dispatch table has %d leaves, want the 22 subcommands", len(all))
	}
	for _, path := range all {
		if err := run(append(path, "-h")); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("calibre %s -h = %v, want flag.ErrHelp", strings.Join(path, " "), err)
		}
	}
}

// TestUnknownNamesListValidOnes: a mistyped -setting or -method answers
// with the names that exist, on every command that takes the flag.
func TestUnknownNamesListValidOnes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-setting", "nope"}, "cifar100-d(0.3,500)"},
		{[]string{"join", "-setting", "nope"}, "cifar100-d(0.3,500)"},
		{[]string{"compare", "-setting", "nope", "fedavg"}, "cifar100-d(0.3,500)"},
		{[]string{"serve", "-method", "nope"}, "pfl-simclr"},
		{[]string{"join", "-method", "nope"}, "pfl-simclr"},
		{[]string{"compare", "nope"}, "pfl-simclr"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("calibre %s: err = %v, want one listing %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

func digest(v param.Vector) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestServeAndSweepBuildTheSameFederation: the cell a one-cell grid plans
// and `serve` given the same scenario through its flags build the same
// federation — equal initial global vectors, aggregator, availability
// trace and straggler policy. A knob spelled differently by the two, or a
// default that drifted, shows up here.
func TestServeAndSweepBuildTheSameFederation(t *testing.T) {
	grid, err := sweep.ParseGrid([]byte(`{
		"methods": ["calibre-simclr"], "settings": ["cifar10-d(0.3,600)"], "seeds": [3],
		"quorums": [2], "stragglers": ["drop"], "aggregators": ["median"],
		"availability": ["diurnal(0.1,0.6,8)"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := grid.Expand()
	if err != nil || len(cells) != 1 {
		t.Fatalf("Expand = %d cells, %v; want one", len(cells), err)
	}
	cell := cells[0]
	swept, err := cell.Seeded().Build() // what the scheduler runs for the cell
	if err != nil {
		t.Fatal(err)
	}

	fs := newFlagSet("serve")
	var sc experiments.Scenario
	serveScenarioFlags(fs, &sc)
	if err := fs.Parse([]string{
		"-method", cell.Method, "-setting", cell.Setting, "-scale", string(cell.Scale),
		"-seed", fmt.Sprint(cell.EnvSeed()), "-quorum", "2", "-straggler", "drop",
		"-aggregator", "median", "-availability", "diurnal(0.1,0.6,8)",
	}); err != nil {
		t.Fatal(err)
	}
	served, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}

	init := func(w *experiments.World) string {
		g, err := w.Method.InitGlobal(rand.New(rand.NewSource(w.Env.Seed)))
		if err != nil {
			t.Fatal(err)
		}
		return digest(g)
	}
	if a, b := init(swept), init(served); a != b {
		t.Errorf("InitGlobal digests differ: sweep %s, serve %s", a, b)
	}
	if a, b := fmt.Sprint(swept.Method.Aggregator), fmt.Sprint(served.Method.Aggregator); a != b || a != "median" {
		t.Errorf("aggregators: sweep %s, serve %s, want median", a, b)
	}
	// The whole knob struct, so a knob added to it later cannot be missed.
	if k := served.Federation; !reflect.DeepEqual(swept.Federation, k) ||
		k.Quorum != 2 || k.Straggler != fl.StragglerDrop || k.Availability.String() == "" {
		t.Errorf("knobs: sweep %+v, serve %+v", swept.Federation, k)
	}
	// Same scenario, same snapshots: a store one wrote, the other resumes.
	if a, b := swept.ServerFingerprint(3, 2, 0), served.ServerFingerprint(3, 2, 0); a != b {
		t.Errorf("server fingerprints differ: %s vs %s", a, b)
	}
}

// flagDefault returns the default of flag name as `calibre <path> -h`
// prints it.
func flagDefault(t *testing.T, name string, path ...string) string {
	t.Helper()
	usage, runErr := capture(t, &os.Stderr, func() error { return run(append(path, "-h")) })
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("calibre %s -h = %v, want flag.ErrHelp", strings.Join(path, " "), runErr)
	}
	m := regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(name) + ` string\n.*\(default "([^"]*)"\)$`).FindStringSubmatch(usage)
	if m == nil {
		t.Fatalf("calibre %s -h prints no default for -%s:\n%s", strings.Join(path, " "), name, usage)
	}
	return m[1]
}

// TestPollDefaultsAreNotTheFederationAddress: `doctor live` and `sweep
// watch` poll a metrics endpoint by default, never the wire-protocol port
// `serve` listens on and `join` dials.
func TestPollDefaultsAreNotTheFederationAddress(t *testing.T) {
	port := func(addr string) string {
		_, p, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("default address %q: %v", addr, err)
		}
		return p
	}
	federation := map[string]bool{
		port(flagDefault(t, "addr", "serve")): true,
		port(flagDefault(t, "addr", "join")):  true,
	}
	for _, path := range [][]string{{"doctor", "live"}, {"sweep", "watch"}} {
		if addr := flagDefault(t, "addr", path...); federation[port(addr)] {
			t.Errorf("calibre %s polls %s by default: the federation's own port", strings.Join(path, " "), addr)
		}
	}
}
