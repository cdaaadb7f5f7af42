package fl

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"calibre/internal/health"
	"calibre/internal/obs"
	"calibre/internal/param"
	"calibre/internal/partition"
)

// healthTrainer nudges the global by a per-client step with a small
// ID-keyed spread, so each round's update-norm cohort has non-zero
// dispersion — the regime the MAD-based norm-z detector is built for
// (fakeTrainer's identical +1 steps collapse the MAD to zero and force
// the mean-deviation fallback). The reported loss decays 1/(round+1),
// identical across clients, keeping the loss and fairness detectors
// quiet so suspect tests see norm-z alerts and nothing else.
type healthTrainer struct{}

func (healthTrainer) Train(ctx context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	step := 0.1 + 0.005*float64(c.ID)
	params := make(param.Vector, len(global))
	for i, v := range global {
		params[i] = v + step
	}
	return &Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(),
		TrainLoss: 1 / float64(round+1)}, nil
}

// pullTrainer pulls the global toward 1 at an ID-keyed rate and reports the
// global's mean distance from it as loss. Honest federations converge; a
// sign-flip attacker's reflected update pushes the global outward, so the
// poisoned aggregate's loss grows while compromised norms sit scale× outside
// the honest spread.
type pullTrainer struct{}

func (pullTrainer) Train(ctx context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eta := 0.1 + 0.005*float64(c.ID)
	params := make(param.Vector, len(global))
	var loss float64
	for i, v := range global {
		params[i] = v + eta*(1-v)
		loss += math.Abs(1 - v)
	}
	return &Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(),
		TrainLoss: loss / float64(len(global))}, nil
}

// scheduleTrainer reports a fixed per-round loss (shared by every client)
// and fakeTrainer's +1 parameter step, so a test can script the exact
// federation loss curve the trend detectors see.
type scheduleTrainer struct{ loss []float64 }

func (s scheduleTrainer) Train(ctx context.Context, _ *rand.Rand, c *partition.Client, global param.Vector, round int) (*Update, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params := make(param.Vector, len(global))
	for i, v := range global {
		params[i] = v + 1
	}
	l := s.loss[len(s.loss)-1]
	if round < len(s.loss) {
		l = s.loss[round]
	}
	return &Update{ClientID: c.ID, Params: params, NumSamples: c.Train.Len(),
		TrainLoss: l}, nil
}

// hostileHealthConfig is the shared fixture for the monitor tests: every
// client sampled every round, 30% of the population sign-flipping with a
// reflection large enough that compromised update norms sit far outside
// the honest cohort's spread.
func hostileHealthConfig(rounds int) SimConfig {
	return SimConfig{
		Rounds: rounds, ClientsPerRound: 10, Seed: 7,
		Federation: Federation{Adversary: &Adversary{Kind: AdvSignFlip, Scale: 6, Frac: 0.3}},
	}
}

func runHostileHealth(t *testing.T, cfg SimConfig, clients []*partition.Client) (param.Vector, []RoundStats) {
	t.Helper()
	sim, err := NewSimulator(cfg, fakeMethod(healthTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	global, history, err := sim.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return global, history
}

// TestHealthMonitorDoesNotPerturbRun pins the observational contract: a
// simulation with a live health.Monitor (plus registry and alert hook)
// attached must produce exactly the same global model and history as a
// bare run — the detectors read the round stream, never touch it.
func TestHealthMonitorDoesNotPerturbRun(t *testing.T) {
	clients := testClients(t, 10)

	bareGlobal, bareHistory := runHostileHealth(t, hostileHealthConfig(6), clients)

	reg := obs.NewRegistry()
	mon := health.NewMonitor(nil)
	var alerts []health.Alert
	cfg := hostileHealthConfig(6)
	cfg.Obs = reg
	cfg.Health = mon
	cfg.OnAlert = func(a health.Alert) { alerts = append(alerts, a) }
	monGlobal, monHistory := runHostileHealth(t, cfg, clients)

	if !reflect.DeepEqual(bareGlobal, monGlobal) {
		t.Errorf("global model drifted under health monitoring:\nwithout: %v\nwith:    %v", bareGlobal, monGlobal)
	}
	if !reflect.DeepEqual(bareHistory, monHistory) {
		t.Errorf("history drifted under health monitoring:\nwithout: %+v\nwith:    %+v", bareHistory, monHistory)
	}

	// The monitor actually saw the attack and the metrics plane carries
	// the alert counters and suspect gauge.
	if len(alerts) == 0 {
		t.Fatal("OnAlert never fired under a 30% sign-flip attack")
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.CounterHealthAlerts] < 3 {
		t.Errorf("health_alerts_total = %d, want ≥3", snap.Counters[obs.CounterHealthAlerts])
	}
	if snap.Counters[obs.CounterHealthCritical] < 3 {
		t.Errorf("health_critical_alerts_total = %d, want ≥3", snap.Counters[obs.CounterHealthCritical])
	}
	if got := snap.Gauges[obs.GaugeHealthSuspects]; got != 3 {
		t.Errorf("health_suspect_clients gauge = %d, want 3", got)
	}
}

// TestHealthSuspectsMatchMaliciousSet pins detection accuracy: under a
// 30% sign-flip attack the monitor's suspect set must be exactly the
// seeded compromised set — no honest client smeared, no attacker missed
// — and an honest twin of the same federation must raise zero alerts.
func TestHealthSuspectsMatchMaliciousSet(t *testing.T) {
	clients := testClients(t, 10)
	cfg := hostileHealthConfig(6)
	mon := health.NewMonitor(nil)
	cfg.Health = mon
	runHostileHealth(t, cfg, clients)

	want := cfg.Adversary.Malicious(cfg.Seed, len(clients))
	diag := mon.Diagnosis()
	if !reflect.DeepEqual(diag.Suspects, want) {
		t.Errorf("suspects = %v, want exactly the compromised set %v", diag.Suspects, want)
	}
	for _, a := range diag.Alerts {
		if a.Rule != "norm-z" {
			t.Errorf("unexpected %s alert in a quiet-loss federation: %v", a.Rule, a)
		}
	}
	// Suspects rank as the least-healthy clients.
	for i, s := range diag.Clients[:len(want)] {
		if !s.Suspect {
			t.Errorf("rank %d (client %d) not a suspect; ranking = %+v", i, s.ID, diag.Clients)
		}
	}

	// Honest twin: same federation, no adversary — nothing to report.
	honest := health.NewMonitor(nil)
	hcfg := hostileHealthConfig(6)
	hcfg.Adversary = nil
	hcfg.Health = honest
	runHostileHealth(t, hcfg, clients)
	hd := honest.Diagnosis()
	if len(hd.Alerts) != 0 || len(hd.Suspects) != 0 || hd.Critical != 0 {
		t.Errorf("honest federation raised alerts: %+v", hd)
	}

	// When the loss tracks the global (pullTrainer), the trend detectors
	// see the attack too: the same exact suspect set, and beside it a
	// loss-divergence alert as the poisoned aggregate drifts outward.
	drift := health.NewMonitor(nil)
	dcfg := hostileHealthConfig(12)
	dcfg.Adversary.Scale = 9
	dcfg.Health = drift
	sim, err := NewSimulator(dcfg, fakeMethod(pullTrainer{}), clients)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, _, err := sim.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	dd := drift.Diagnosis()
	if !reflect.DeepEqual(dd.Suspects, want) {
		t.Errorf("suspects = %v, want exactly the compromised set %v", dd.Suspects, want)
	}
	diverged := false
	for _, a := range dd.Alerts {
		diverged = diverged || a.Rule == "loss-divergence"
	}
	if !diverged {
		t.Errorf("poisoned aggregate raised no loss-divergence alert: %+v", dd.Alerts)
	}
}

// TestHealthVerdictsDeterministicAcrossWorkers pins bit-identical
// diagnosis across Parallelism/KernelWorkers 1, 2, 4 and 8: the update
// norms feeding the detectors are serial left-to-right reductions
// recorded into slot-indexed arrays, so goroutine scheduling can never
// reorder or perturb what the monitor sees.
func TestHealthVerdictsDeterministicAcrossWorkers(t *testing.T) {
	clients := testClients(t, 10)
	diagnose := func(workers int) ([]byte, health.Diagnosis) {
		t.Helper()
		mon := health.NewMonitor(nil)
		cfg := hostileHealthConfig(6)
		cfg.Parallelism = workers
		cfg.KernelWorkers = workers
		cfg.Health = mon
		runHostileHealth(t, cfg, clients)
		d := mon.Diagnosis()
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal diagnosis: %v", err)
		}
		return raw, d
	}

	refRaw, refDiag := diagnose(1)
	if len(refDiag.Suspects) != 3 {
		t.Fatalf("reference run found %v suspects, want 3", refDiag.Suspects)
	}
	for _, workers := range []int{2, 4, 8} {
		raw, diag := diagnose(workers)
		if !reflect.DeepEqual(diag, refDiag) {
			t.Errorf("diagnosis drifted at %d workers:\nwant %+v\ngot  %+v", workers, refDiag, diag)
		}
		if string(raw) != string(refRaw) {
			t.Errorf("diagnosis JSON not byte-identical at %d workers", workers)
		}
	}
}

// TestHealthWarmStartResume pins the kill+resume contract for the
// federation-scoped detectors: a monitor attached to a resumed run is
// warm-started from the checkpoint's history, so its loss-trend verdicts
// — including alerts that only fire after the cut — match a monitor that
// watched the whole run live. Per-client windows are not part of
// SimState (replay a trace through `calibre doctor` for those), so the
// test disables the per-client rules.
func TestHealthWarmStartResume(t *testing.T) {
	const total, cut = 8, 4
	clients := testClients(t, 6)
	// Scripted loss curve: dips, spikes into divergence at round 3
	// (before the cut), then flatlines so the plateau detector fires at
	// round 7 (after the cut).
	tr := scheduleTrainer{loss: []float64{1, 0.5, 5, 10, 0.4, 0.4, 0.4, 0.4}}
	hcfg := health.DefaultConfig()
	hcfg.NormZ = false
	hcfg.Fairness = false
	hcfg.PlateauWindow = 4
	base := SimConfig{Rounds: total, ClientsPerRound: 3, Seed: 11}

	run := func(cfg SimConfig, mon *health.Monitor) *SimState {
		t.Helper()
		var last *SimState
		cfg.Health = mon
		cfg.OnCheckpoint = func(st *SimState) error { last = st; return nil }
		sim, err := NewSimulator(cfg, fakeMethod(tr), clients)
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		if _, _, err := sim.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return last
	}

	// Reference: one monitor watches all 8 rounds live.
	full := health.NewMonitor(&hcfg)
	fullCfg := base
	run(fullCfg, full)

	// Kill at round 4, then a fresh process resumes with a fresh monitor.
	cutCfg := base
	cutCfg.Rounds = cut
	st := run(cutCfg, nil)
	if st == nil || st.Round != cut {
		t.Fatalf("no checkpoint at round %d: %+v", cut, st)
	}
	resumed := health.NewMonitor(&hcfg)
	resCfg := base
	resCfg.ResumeFrom = st
	run(resCfg, resumed)

	fd, rd := full.Diagnosis(), resumed.Diagnosis()
	if fd.Rounds != total || rd.Rounds != total {
		t.Fatalf("rounds observed: full=%d resumed=%d, want %d", fd.Rounds, rd.Rounds, total)
	}
	if !reflect.DeepEqual(fd.Alerts, rd.Alerts) {
		t.Errorf("alerts drifted across kill+resume:\nfull:    %+v\nresumed: %+v", fd.Alerts, rd.Alerts)
	}
	if fd.Critical != rd.Critical || len(fd.Suspects) != len(rd.Suspects) {
		t.Errorf("verdict counters drifted: full=%+v resumed=%+v", fd, rd)
	}
	// The scripted curve produced both a pre-cut and a post-cut alert,
	// so the equality above actually exercised the warm start.
	rules := map[string]int{}
	for _, a := range fd.Alerts {
		rules[a.Rule] = a.Round
	}
	if r, ok := rules["loss-divergence"]; !ok || r >= cut {
		t.Errorf("want a loss-divergence alert before round %d, got alerts %+v", cut, fd.Alerts)
	}
	if r, ok := rules["plateau"]; !ok || r < cut {
		t.Errorf("want a plateau alert after round %d, got alerts %+v", cut, fd.Alerts)
	}
}

// TestHealthRingReplayMatchesLive pins the `calibre doctor` equivalence:
// replaying the obs round ring (which carries per-client detail whenever
// a monitor was attached) through a fresh monitor reproduces the live
// monitor's diagnosis exactly.
func TestHealthRingReplayMatchesLive(t *testing.T) {
	clients := testClients(t, 10)
	reg := obs.NewRegistry()
	live := health.NewMonitor(nil)
	cfg := hostileHealthConfig(6)
	cfg.Obs = reg
	cfg.Health = live
	runHostileHealth(t, cfg, clients)

	replay := health.NewMonitor(nil)
	for _, s := range reg.Snapshot().Rounds {
		replay.ObserveRound(s)
	}
	liveD, replayD := live.Diagnosis(), replay.Diagnosis()
	if !reflect.DeepEqual(liveD, replayD) {
		t.Errorf("ring replay drifted from live diagnosis:\nlive:   %+v\nreplay: %+v", liveD, replayD)
	}
	if len(replayD.Suspects) != 3 {
		t.Errorf("replay found suspects %v, want 3", replayD.Suspects)
	}
}
