package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calibre/internal/obs"
)

// runWatch polls a running federation's -metrics-addr endpoint and renders
// live cell/round progress, one line per poll.
func runWatch(args []string) error {
	fs := newFlagSet("sweep watch")
	p := addPollFlags(fs, "127.0.0.1:9800", "render one snapshot and exit")
	jsonOut := fs.Bool("json", false, "emit each snapshot as one line of raw JSON instead of the human progress line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	gone, err := p.poll("watch", func(snap obs.Snapshot) error {
		if *jsonOut {
			// One compact snapshot per line: pipeline-friendly (jq, log
			// shippers) and carries every counter the human line elides.
			return json.NewEncoder(os.Stdout).Encode(snap)
		}
		fmt.Println(renderWatchLine(snap))
		return nil
	})
	if gone {
		fmt.Println("watch: metrics endpoint gone (run finished?)")
	}
	return err
}

// poller is the polling policy `sweep watch` and `doctor live` share: retry
// until the endpoint first answers (so either can be started before or
// after the run), give up if it never does within -timeout, and end
// cleanly once a previously-live endpoint disappears — that is what the
// end of a watched run looks like from outside.
type poller struct {
	addr              string
	interval, timeout time.Duration
	once              bool
}

func addPollFlags(fs *flag.FlagSet, defaultAddr, onceHelp string) *poller {
	p := &poller{}
	fs.StringVar(&p.addr, "addr", defaultAddr, "host:port of a running -metrics-addr endpoint")
	fs.DurationVar(&p.interval, "interval", time.Second, "poll interval")
	fs.DurationVar(&p.timeout, "timeout", 10*time.Second, "give up if the endpoint never answers within this window")
	fs.BoolVar(&p.once, "once", false, onceHelp)
	return p
}

// poll hands every scraped snapshot to each until -once is satisfied, the
// process is signalled, or the endpoint answered before and is gone now
// (gone = true: the federation finished or was stopped — a clean end, not
// an error).
func (p *poller) poll(who string, each func(obs.Snapshot) error) (gone bool, err error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	url := "http://" + p.addr + "/metrics"
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(p.timeout)
	connected := false
	for {
		snap, err := scrape(ctx, client, url)
		switch {
		case err == nil:
			connected = true
			if err := each(snap); err != nil || p.once {
				return false, err
			}
		case ctx.Err() != nil:
			return false, nil
		case connected:
			return true, nil
		case time.Now().After(deadline):
			return false, fmt.Errorf("%s: no answer from %s within %s: %w", who, p.addr, p.timeout, err)
		}
		select {
		case <-ctx.Done():
			return false, nil
		case <-time.After(p.interval):
		}
	}
}

// scrape fetches and decodes one JSON metrics snapshot.
func scrape(ctx context.Context, client *http.Client, url string) (obs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

// renderWatchLine compresses one snapshot into a single progress line:
// sweep cell states (when the endpoint belongs to a sweep), cumulative
// rounds and uplink cost, and the latest round's outcome.
func renderWatchLine(s obs.Snapshot) string {
	c, g := s.Counters, s.Gauges
	line := fmt.Sprintf("rounds %d", c[obs.CounterRounds])
	if planned := g[obs.GaugeSweepCellsPlanned]; planned > 0 {
		line = fmt.Sprintf("cells %d/%d done (%d failed, %d in flight, %d pending) · %s",
			c[obs.CounterSweepCellsDone], planned, c[obs.CounterSweepCellsFailed],
			g[obs.GaugeSweepCellsInFlight], g[obs.GaugeSweepCellsPending], line)
	}
	line += " · uplink " + formatBytes(c[obs.CounterUplinkWireBytes])
	// Hostile-federation signal: only shown once an attack (or a robust
	// aggregator rejection) actually fires, so benign sweeps stay terse.
	if adv, rej := c[obs.CounterAdversarialUpdates], c[obs.CounterRejectedUpdates]; adv > 0 || rej > 0 {
		line += fmt.Sprintf(" · hostile: %d adversarial, %d rejected", adv, rej)
	}
	// Health-plane signal: same policy — silent until a monitor somewhere
	// behind this endpoint raises an alert or marks a suspect.
	if al, su := c[obs.CounterHealthAlerts], g[obs.GaugeHealthSuspects]; al > 0 || su > 0 {
		line += fmt.Sprintf(" · health: %d alerts (%d critical), %d suspects",
			al, c[obs.CounterHealthCritical], su)
	}
	if last, ok := s.LastRound(); ok {
		line += fmt.Sprintf(" · %s round %d: %d/%d responded, loss %.4f",
			last.Runtime, last.Round, last.Responders, last.Participants, last.MeanLoss)
	}
	return line
}

// formatBytes renders a byte count compactly.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
