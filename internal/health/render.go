package health

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText renders the diagnosis as the deterministic plain-text report
// `calibre doctor` prints: alert list in raise order, suspect set, then
// the client table ranked least-healthy first. No wall-clock facts
// appear, so equal diagnoses render byte-equal (cmd/calibre's
// TestDoctorReplayMatchesLiveMonitor compares the text).
func (d Diagnosis) WriteText(w io.Writer) error {
	if len(d.Alerts) == 0 && d.Critical == 0 {
		if _, err := fmt.Fprintf(w, "rounds observed: %d\nno alerts — federation healthy\n", d.Rounds); err != nil {
			return err
		}
		return d.writeClients(w)
	}
	if _, err := fmt.Fprintf(w, "rounds observed: %d\nalerts: %d (%d critical", d.Rounds, len(d.Alerts)+d.Dropped, d.Critical); err != nil {
		return err
	}
	if d.Dropped > 0 {
		if _, err := fmt.Fprintf(w, ", oldest %d dropped", d.Dropped); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, ")\n"); err != nil {
		return err
	}
	for _, a := range d.Alerts {
		if _, err := fmt.Fprintf(w, "  %s\n", a); err != nil {
			return err
		}
	}
	if len(d.Suspects) > 0 {
		parts := make([]string, len(d.Suspects))
		for i, id := range d.Suspects {
			parts[i] = strconv.Itoa(id)
		}
		if _, err := fmt.Fprintf(w, "suspects: [%s]\n", strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return d.writeClients(w)
}

// writeClients renders the ranked per-client table.
func (d Diagnosis) writeClients(w io.Writer) error {
	if len(d.Clients) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "clients (least healthy first):\n%8s %6s %8s %10s %10s %9s %9s  %s\n",
		"id", "score", "sampled", "responded", "straggled", "outliers", "rejected", "flag"); err != nil {
		return err
	}
	for _, c := range d.Clients {
		flag := ""
		if c.Suspect {
			flag = "SUSPECT"
		}
		if _, err := fmt.Fprintf(w, "%8d %6.2f %8d %10d %10d %9d %9d  %s\n",
			c.ID, c.Score, c.Sampled, c.Responded, c.Straggled, c.Outliers, c.Rejected, flag); err != nil {
			return err
		}
	}
	return nil
}
