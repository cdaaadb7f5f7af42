// Package health is the federation's judgment layer: a stdlib-only
// streaming-detector engine that watches the round stream the metrics
// plane (internal/obs) already produces and turns it into typed,
// severity-ranked alerts, per-client health scores and a suspect set —
// live, while the run executes, not post-mortem.
//
// # Detectors
//
// A Monitor runs up to six rules, each selectable and tunable through a
// Config (textual form via ParseRules / Config.Rules):
//
//	non-finite       crit  NaN/Inf in the loss or update-norm stream
//	loss-divergence  warn  smoothed loss rose factor×|best| above its best
//	plateau          info  loss flat over a full window of rounds
//	fairness-drift   warn  worst-decile loss gap drifting above the loss scale
//	norm-z           crit  per-client robust (median/MAD) update-norm outliers;
//	                       repeat offenders become suspected adversaries
//	quorum           warn  straggler-rate EWMA or deadline-expiry streaks
//
// The norm-z rule deliberately uses the median/MAD modified z-score
// rather than mean/σ: at the 30% contamination levels the hostile
// scenarios seed, attackers drag the mean toward themselves and plain
// z-scores stay under any usable threshold, while the robust statistic
// keeps honest clients near zero and attackers far outside it. This is
// what lets the monitor surface suspected adversaries from update norms
// alone — before (or without) a robust aggregator rejecting them.
//
// Alerts are edge-triggered: a rule raises once when its condition
// first trips and re-arms when the condition clears, so a ten-round
// divergence is one alert, not ten.
//
// # Determinism
//
// Detectors are pure functions of the observed sample stream. They
// never read wall-clock fields (RoundSample.DurationMS), never iterate
// a Go map where order could leak, and reduce in fixed serial order —
// so two runs producing the same round stream yield bit-identical
// diagnoses regardless of KernelWorkers, scheduling or host, and a
// Monitor never perturbs the run it watches (instrumented ≡ bare,
// pinned the same way as obs and trace): internal/fl's
// TestHealthVerdictsDeterministicAcrossWorkers and
// TestHealthMonitorDoesNotPerturbRun hold both halves.
//
// # Wiring
//
// All three runtimes accept a *Monitor behind a nil-safe config field
// (fl.Federation.Health, which fl.SimConfig and flnet.ServerConfig embed;
// sweep.Config.Health) and feed it one obs.RoundSample per completed
// round through a Fold, which fl.RunRounds builds from the Federation:
// the one place a round's trace events become its sample, for the live
// metrics registry and monitor and for Fold.Replay alike. Handler mounts
// /healthz (JSON) and /healthz/prom next to the /metrics endpoints; and
// `calibre doctor` runs the same detectors against a live /metrics
// endpoint or, through Fold.Replay, a recorded flight-recorder trace.
package health
