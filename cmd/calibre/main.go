// Command calibre is the repository's one command line: every role a
// paper cell passes through — reproduce a figure, probe a comparison,
// sweep a grid, run a federation over TCP, read what a run left behind —
// is a subcommand of it, so all of them assemble a federation from the
// same experiments.Scenario and share one definition of every flag.
//
//	calibre fig     -exp fig3 -scale ci -seed 42 [-out DIR]    reproduce a paper figure or table (-list names them)
//	calibre perf    kernels|sweep [-quick] [-out DIR]          time the matmul kernels / the sweep scheduler
//	calibre compare [-setting S -scale … -seed N] METHOD...     mean/variance of chosen methods on one setting
//	calibre diff    sweep A.csv B.csv | bench [-fail F] A.json B.json   diff two sweep cell CSVs / two BENCH_*.json files
//	calibre sweep   plan|run|resume|report|watch …             declarative scenario grids, resumable
//	calibre serve   -clients N -rounds R -method M …           the server of a networked federation (TCP)
//	calibre join    -addr HOST:PORT -id I -method M …          one client of it
//	calibre trace   summary|timeline|grep FILE …               render a flight-recorder trace (-trace-out)
//	calibre doctor  replay FILE | live -addr HOST:PORT         diagnose a federation's health
//	calibre ckpt    list|inspect|diff|export -dir DIR …        operate on a checkpoint directory
//
// `calibre CMD -h` prints a subcommand's flags. ARCHITECTURE.md "Command
// line" maps the nine former binaries onto these.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"calibre/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "calibre:", err)
		os.Exit(1)
	}
}

// command is one entry of the dispatch table: a leaf runs, a group
// dispatches on its next argument.
type command struct {
	name    string
	summary string
	run     func(args []string) error
	sub     []command
}

var commands = []command{
	{name: "fig", summary: "reproduce a paper figure or table", run: runFig},
	{name: "perf", summary: "time the kernels or the sweep scheduler", sub: []command{
		{name: "kernels", summary: "MatMul family, an MLP step and a federated round, serial vs pool", run: perfCmd(runKernelBench)},
		{name: "sweep", summary: "sweep scheduler throughput at 1/2/4 workers", run: perfCmd(runSweepBench)},
	}},
	{name: "compare", summary: "mean/variance of chosen methods on one setting", run: runCompare},
	{name: "diff", summary: "diff two result files", sub: []command{
		{name: "sweep", summary: "two sweep-cells.csv files, method by method", run: diffCmd(diffSweeps)},
		{name: "bench", summary: "two BENCH_*.json envelopes, record by record", run: diffBenchCmd},
	}},
	{name: "sweep", summary: "declarative scenario grids", sub: []command{
		{name: "plan", summary: "print the expanded grid", run: sweepCmd("plan")},
		{name: "run", summary: "execute every cell, write the reports", run: sweepCmd("run")},
		{name: "resume", summary: "continue a killed sweep from its manifest", run: sweepCmd("resume")},
		{name: "report", summary: "rebuild the reports from the manifest", run: sweepCmd("report")},
		{name: "watch", summary: "poll a running -metrics-addr endpoint", run: runWatch},
	}},
	{name: "serve", summary: "run the server of a networked federation", run: runServe},
	{name: "join", summary: "join a networked federation as one client", run: runJoin},
	{name: "trace", summary: "render a flight-recorder trace", sub: []command{
		{name: "summary", summary: "aggregate counts and percentiles", run: onStdout(runSummary)},
		{name: "timeline", summary: "ASCII per-round timeline", run: onStdout(runTimeline)},
		{name: "grep", summary: "filter events", run: onStdout(runGrep)},
	}},
	{name: "doctor", summary: "diagnose a federation's health", sub: []command{
		{name: "replay", summary: "from a recorded trace", run: onStdout(runReplay)},
		{name: "live", summary: "from a running -metrics-addr endpoint", run: onStdout(runLive)},
	}},
	{name: "ckpt", summary: "operate on a checkpoint directory", sub: []command{
		{name: "list", summary: "list versions", run: runList},
		{name: "inspect", summary: "describe one snapshot", run: runInspect},
		{name: "diff", summary: "compare two snapshots", run: runDiff},
		{name: "export", summary: "write a snapshot as csv or gob", run: runExport},
	}},
}

func run(args []string) error { return dispatch("calibre", commands, args) }

// dispatch runs the command args[0] names. No argument and an unknown name
// are errors that list the valid names; -h prints them with their
// summaries.
func dispatch(path string, cmds []command, args []string) error {
	names := make([]string, len(cmds))
	for i, c := range cmds {
		names[i] = c.name
	}
	choices := strings.Join(names, "|")
	if len(args) == 0 {
		return fmt.Errorf("usage: %s <%s> [flags] (-h for help)", path, choices)
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprintf(os.Stderr, "usage: %s <command> [flags]\n\n", path)
		for _, c := range cmds {
			fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
		}
		fmt.Fprintf(os.Stderr, "\n`%s <command> -h` prints a command's flags.\n", path)
		return flag.ErrHelp
	}
	for _, c := range cmds {
		if c.name != args[0] {
			continue
		}
		if c.sub != nil {
			return dispatch(path+" "+c.name, c.sub, args[1:])
		}
		if err := c.run(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return err
			}
			return fmt.Errorf("%s: %w", strings.TrimPrefix(path+" "+c.name, "calibre "), err)
		}
		return nil
	}
	return fmt.Errorf("unknown command %q (%s wants %s)", args[0], path, choices)
}

// onStdout adapts a subcommand that renders to a writer. os.Stdout is read
// at call time, so the tests' capture sees the output.
func onStdout(fn func(args []string, w io.Writer) error) func([]string) error {
	return func(args []string) error { return fn(args, os.Stdout) }
}

// newFlagSet names a leaf's FlagSet after its full command path, which is
// what its -h and its parse errors print.
func newFlagSet(path string) *flag.FlagSet {
	return flag.NewFlagSet("calibre "+path, flag.ContinueOnError)
}

// The world flags. Every subcommand that builds a federation world takes
// its pick of these, bound to the fields of one experiments.Scenario; each
// flag's name, default and help are defined here and nowhere else, so
// `serve`, `join`, `compare` and `fig` cannot drift apart.

func scaleSeedFlags(fs *flag.FlagSet, sc *experiments.Scenario) {
	fs.StringVar((*string)(&sc.Scale), "scale", string(experiments.ScaleSmoke), "scale preset: smoke | ci | paper")
	fs.Int64Var(&sc.Seed, "seed", 42, "master seed of the generated world")
}

func settingFlag(fs *flag.FlagSet, sc *experiments.Scenario) {
	fs.StringVar(&sc.Setting, "setting", "cifar10-q(2,500)", "dataset + non-IID partition (an unknown name lists the valid ones)")
}

func methodFlag(fs *flag.FlagSet, sc *experiments.Scenario) {
	fs.StringVar(&sc.Method, "method", "calibre-simclr", "method name (an unknown name lists the valid ones)")
}
