// Command smoke is the CI gate for what only real processes can show, run
// by ci.sh. It builds the calibre binary once and drives one hostile,
// traced, metrics-serving sweep (sign-flip attackers over mean and median
// aggregation) twice: to completion, and through a SIGINT at the
// `plan:` line followed by `resume`.
//
//   - While the first run's cells execute, /metrics answers with decodable
//     JSON whose round counter goes non-zero and /metrics/prom carries
//     calibre_rounds_total.
//   - The signal lands (the interrupted sweep exits non-zero), and the
//     resumed sweep's report, cell CSV and method CSV are byte-identical to
//     the uninterrupted run's; the report carries the hostile-fairness table.
//   - `calibre trace` parses both traces — the one appended across the kill
//     may end a record short — and the uninterrupted trace holds one cell
//     span per manifest cell and one round span per round the manifest ran.
//
// Last, in this process, a warmed calibre-simclr federation must stay under
// the committed allocations-per-round ceiling (the same count on the
// benchmark's federation is allocs_per_round of
// `go run -C bench . --workload sim-calibre`).
//
// Everything else the five programs this replaces used to assert is held
// by tier-1 tests; ARCHITECTURE.md "Verification" has the mapping.
//
//	go run ./tools/smoke
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"calibre/internal/experiments"
	"calibre/internal/fl"
	"calibre/internal/sweep"
)

// Eight cheap cells: enough runway that the scraper sees rounds land and
// the SIGINT arrives while the sweep is still executing.
const grid = `{
  "name": "smoke",
  "methods": ["fedavg-ft"],
  "settings": ["cifar10-q(2,500)"],
  "scales": ["smoke"],
  "seeds": [1, 2],
  "aggregators": ["mean", "median"],
  "adversary": ["sign-flip(3)"],
  "adversary_frac": [0, 0.3]
}`

const gridCells = 8

var artifacts = []string{"sweep-report.md", "sweep-cells.csv", "sweep-methods.csv"}

// allocBudgetPerRound is the committed ceiling on heap allocations per
// federation round: 50% headroom over the measured steady state (536,
// 534–537 over four runs; the "ok" line prints it), so drift passes but a
// dropped arena, an unfused layer, a per-round wire copy or a pseudo-label
// pipeline back on the heap trips the gate. The smoke preset warms up for
// one round, so the two metered rounds are one plain SSL round and one with
// Calibre's regularizer on: both kinds of step are under the ceiling. (It
// stood at 4,800 over a measured 3,224, of which ≈ 440 objects per
// regularized step were the regularizer's own, then at 1,250 over 832.)
const allocBudgetPerRound = 804

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "calibre-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(grid), 0o644); err != nil {
		return err
	}
	// A real binary: SIGINT must land on the sweep itself, not on a
	// `go run` wrapper, and the trace subcommand is part of what is verified.
	s := &smoke{bin: filepath.Join(dir, "calibre"), grid: gridPath}
	if out, err := exec.Command("go", "build", "-o", s.bin, "./cmd/calibre").CombinedOutput(); err != nil {
		return fmt.Errorf("build: %v\n%s", err, out)
	}
	fullDir, fullTrace := filepath.Join(dir, "full"), filepath.Join(dir, "full.jsonl")
	if err := s.runScraped(fullDir, fullTrace); err != nil {
		return err
	}
	wantRounds, err := s.checkTrace(fullDir, fullTrace)
	if err != nil {
		return err
	}
	if err := s.killResume(fullDir, filepath.Join(dir, "killed"), filepath.Join(dir, "killed.jsonl"), wantRounds); err != nil {
		return err
	}
	return allocCeiling()
}

type smoke struct{ bin, grid string }

// start launches the sweep with its stdout delivered line by line; the
// channel closes at EOF, after which Wait may be called.
func (s *smoke) start(verb, out, tracePath string, extra ...string) (*exec.Cmd, <-chan string, error) {
	args := append([]string{"sweep", verb, "-grid", s.grid, "-out", out, "-trace-out", tracePath,
		"-metrics-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(s.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	return cmd, lines, nil
}

// runScraped runs the grid to completion, scraping the metrics endpoint
// like an external scraper would (no in-module types) while cells run.
func (s *smoke) runScraped(out, tracePath string) error {
	cmd, lines, err := s.start("run", out, tracePath, "-quiet")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill() // for the error returns below; a no-op once Wait has returned
	client := &http.Client{Timeout: 2 * time.Second}
	get := func(url string) ([]byte, error) {
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	var addr string
	var scrapes, maxRounds int64
	promSeen := false
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for lines != nil {
		select {
		case line, ok := <-lines:
			if !ok {
				lines = nil
			} else if rest, ok := strings.CutPrefix(line, "metrics: listening on http://"); ok {
				addr, _, _ = strings.Cut(rest, "/metrics")
			}
		case <-tick.C:
			if addr == "" {
				continue
			}
			body, err := get("http://" + addr + "/metrics")
			if err != nil {
				continue
			}
			var snap struct{ Counters map[string]int64 } // obs.Snapshot's "counters"
			if err := json.Unmarshal(body, &snap); err != nil {
				return fmt.Errorf("/metrics served undecodable JSON: %v", err)
			}
			scrapes++
			maxRounds = max(maxRounds, snap.Counters["rounds_total"])
			// Once a round has landed, the Prometheus view must carry it too.
			if maxRounds > 0 && !promSeen {
				text, err := get("http://" + addr + "/metrics/prom")
				if err != nil {
					continue
				}
				if !bytes.Contains(text, []byte("calibre_rounds_total")) {
					return fmt.Errorf("/metrics/prom missing calibre_rounds_total:\n%s", text)
				}
				promSeen = true
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("uninterrupted sweep exited non-zero: %w", err)
	}
	if maxRounds == 0 || !promSeen {
		return fmt.Errorf("metrics never showed a round while cells ran: %d scrapes of %q, rounds_total peaked at %d, prom view seen=%v",
			scrapes, addr, maxRounds, promSeen)
	}
	fmt.Printf("smoke: %d scrapes, rounds_total peaked at %d, prom view confirmed\n", scrapes, maxRounds)
	return nil
}

// grepCount runs `calibre trace grep <trace> -kind <kind> -count`.
func (s *smoke) grepCount(tracePath, kind string) (int, error) {
	out, err := exec.Command(s.bin, "trace", "grep", tracePath, "-kind", kind, "-count").CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("calibre trace grep -kind %s: %v\n%s", kind, err, out)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		return 0, fmt.Errorf("calibre trace grep -kind %s printed %q, not a count", kind, out)
	}
	return n, nil
}

func (s *smoke) summary(tracePath string) error {
	out, err := exec.Command(s.bin, "trace", "summary", tracePath).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("rounds:")) {
		return fmt.Errorf("calibre trace summary %s: %v\n%s", tracePath, err, out)
	}
	return nil
}

// checkTrace holds the uninterrupted trace to the manifest: one cell span
// per cell, as many round spans as the manifest says ran. It returns that
// round count.
func (s *smoke) checkTrace(out, tracePath string) (int, error) {
	var man struct {
		Cells map[string]sweep.CellResult `json:"cells"`
	}
	raw, err := os.ReadFile(filepath.Join(out, sweep.ManifestName))
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return 0, fmt.Errorf("decode manifest: %v", err)
	}
	if len(man.Cells) != gridCells {
		return 0, fmt.Errorf("manifest holds %d cells, want %d", len(man.Cells), gridCells)
	}
	wantRounds := 0
	for key, c := range man.Cells {
		if c.Status != sweep.StatusOK {
			return 0, fmt.Errorf("cell %s failed: %s", key, c.Error)
		}
		wantRounds += c.Rounds
	}
	for kind, want := range map[string]int{"cell_start": gridCells, "round_end": wantRounds} {
		got, err := s.grepCount(tracePath, kind)
		if err != nil {
			return 0, err
		}
		if got != want {
			return 0, fmt.Errorf("trace holds %d %s events, manifest says %d", got, kind, want)
		}
	}
	fmt.Printf("smoke: %d cells / %d rounds traced and matched against the manifest\n", gridCells, wantRounds)
	return wantRounds, s.summary(tracePath)
}

// killResume runs the grid again, interrupts it the moment the plan is
// printed — before the first cell can finish — and resumes it.
func (s *smoke) killResume(fullDir, out, tracePath string, wantRounds int) error {
	cmd, lines, err := s.start("run", out, tracePath)
	if err != nil {
		return err
	}
	signalled := false
	for line := range lines {
		if !signalled && strings.HasPrefix(line, "plan:") {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				return fmt.Errorf("signal sweep: %v", err)
			}
		}
	}
	if err := cmd.Wait(); err == nil {
		return fmt.Errorf("interrupted sweep exited zero; the kill never landed (plan line seen=%v)", signalled)
	}
	cmd, lines, err = s.start("resume", out, tracePath, "-quiet")
	if err != nil {
		return err
	}
	for range lines {
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	for _, name := range artifacts {
		want, werr := os.ReadFile(filepath.Join(fullDir, name))
		got, gerr := os.ReadFile(filepath.Join(out, name))
		if werr != nil || gerr != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("%s differs between the uninterrupted and the killed-and-resumed sweep (read: %v, %v)", name, werr, gerr)
		}
		if name == "sweep-report.md" && !bytes.Contains(want, []byte("## Hostile fairness")) {
			return fmt.Errorf("sweep-report.md lacks the hostile-fairness table:\n%s", want)
		}
	}
	// The resumed sweep re-runs whatever the interrupt abandoned, so the
	// appended trace holds at least the manifest's rounds.
	if err := s.summary(tracePath); err != nil {
		return err
	}
	resumed, err := s.grepCount(tracePath, "round_end")
	if err != nil {
		return err
	}
	if resumed < wantRounds {
		return fmt.Errorf("killed+resumed trace holds %d round spans, want at least %d", resumed, wantRounds)
	}
	fmt.Printf("smoke: kill+resume byte-identical across %d artifacts; its trace parses (%d round spans)\n", len(artifacts), resumed)
	return nil
}

// allocCeiling runs a calibre-simclr federation once to warm the
// per-client arenas, then meters a second run.
func allocCeiling() error {
	const rounds, seed = 2, 42
	world, err := experiments.Scenario{
		Method: "calibre-simclr", Setting: "cifar10-q(2,500)", Scale: experiments.ScaleSmoke, Seed: seed,
	}.Build()
	if err != nil {
		return err
	}
	runSim := func() error {
		sim, err := fl.NewSimulator(fl.SimConfig{
			Rounds: rounds, ClientsPerRound: 4, Seed: seed,
		}, world.Method, world.Env.Participants)
		if err != nil {
			return err
		}
		_, _, err = sim.Run(context.Background())
		return err
	}
	if err := runSim(); err != nil {
		return err
	}
	// Mallocs is monotonic, so intervening GCs cannot perturb the delta;
	// the explicit GC just keeps heap growth out of the metered run.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := runSim(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	got := int64(after.Mallocs-before.Mallocs) / rounds
	if got > allocBudgetPerRound {
		return fmt.Errorf("hot path allocates %d objects/round, budget is %d — the allocation-free path regressed", got, allocBudgetPerRound)
	}
	fmt.Printf("smoke: %d allocs/round ≤ budget %d\n", got, allocBudgetPerRound)
	return nil
}
