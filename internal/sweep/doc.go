// Package sweep turns the repo from "runs an experiment" into "serves
// workloads": it executes whole grids of federated-learning scenarios —
// methods × non-i.i.d. partitions × seeds × federation knobs — as a
// single scheduled, resumable, reportable unit.
//
// The subsystem has four layers:
//
//	Grid      a declarative scenario spec (JSON or Go) expanded into
//	          deterministic Cells; each cell's RNG seed derives from a
//	          hash of its key, so results are independent of execution
//	          order, and the environment sub-key excludes the method, so
//	          every method in a scenario faces the identical federation
//	          world.
//	Run       a bounded worker pool running whole fl simulations
//	          concurrently — distinct from the intra-simulation client
//	          pool; Config.SimBudget splits the hardware budget between
//	          the two levels — with per-cell timeouts, panic isolation
//	          and typed failure records.
//	manifest  an atomic write-rename JSON manifest (store.AtomicWriteFile,
//	          fingerprinted like checkpoint snapshots) records each
//	          completed cell, so a killed sweep resumes by skipping
//	          finished cells; per-cell durable checkpoints additionally
//	          thread through fl's ResumeFrom machinery, client rows
//	          included (SCAFFOLD, fl.Stateful, runs uncheckpointed, with a
//	          note).
//	Report    fairness-first aggregation over eval.Summary: per-cell
//	          mean/variance/Bottom10, cross-seed aggregates with
//	          variance-of-variance, variance reduction versus a baseline
//	          method and Pareto-front extraction (mean vs variance),
//	          emitted as CSV and markdown.
//
// `calibre sweep` exposes plan, run, resume and report over
// this package; calibre.RunSweep is the facade entry point. See the
// "Sweep engine" section of ARCHITECTURE.md for the full diagram and the
// two-level worker-budget rule.
package sweep
