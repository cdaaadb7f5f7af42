package main

import (
	"time"

	"calibre/internal/eval"
)

// layerMetrics turns the reps of one traced run into the per-layer
// numbers that come from spans and counters (the probes add the rest).
// untraced and traced are the reps run without and with the decorators;
// both are non-empty.
func layerMetrics(w workload, untraced, traced []*rep) map[string]float64 {
	out := map[string]float64{}
	all := append(append([]*rep(nil), untraced...), traced...)
	nTraced := float64(len(traced))

	var trainMs, persMs []float64
	var busy, cover, agg, ckpt, self, round, skew float64
	var trainCalls, aggCalls, ckptCalls, rounds int
	for _, r := range traced {
		children := map[int][]span{}
		for _, s := range r.Spans {
			children[s.Parent] = append(children[s.Parent], s)
			switch s.Name {
			case spanTrain:
				trainMs = append(trainMs, float64(s.dur())/1e6)
				trainCalls++
			case spanAggregate:
				aggCalls++
			case spanCheckpoint:
				ckptCalls++
			case spanPersonalize:
				persMs = append(persMs, float64(s.dur())/1e6)
			}
		}
		for _, s := range r.Spans {
			if s.Name != spanRound {
				continue
			}
			rounds++
			round += float64(s.dur())
			self += float64(selfTime(s, children[s.ID]))
			var trains []interval
			var sum, longest int64
			for _, c := range children[s.ID] {
				switch c.Name {
				case spanTrain:
					trains = append(trains, interval{c.Start, c.End})
					sum += c.dur()
					longest = max(longest, c.dur())
				case spanAggregate, spanIngest:
					agg += float64(c.dur())
				case spanCheckpoint:
					ckpt += float64(c.dur())
				}
			}
			busy += float64(sum)
			cover += float64(unionLen(trains, s.Start, s.End))
			if sum > 0 {
				skew += float64(longest) * float64(len(trains)) / float64(sum)
			}
		}
	}
	perRoundMs := func(ns float64) float64 { return ns / float64(rounds) / 1e6 }
	sortedTrain := sortedCopy(trainMs)
	out["fl.train_ms_p50"] = percentile(sortedTrain, 50)
	out["fl.train_ms_p90"] = percentile(sortedTrain, tailPercentile(len(sortedTrain), 90))
	out["fl.train_calls"] = float64(trainCalls) / nTraced
	out["fl.train_busy_ms_per_round"] = perRoundMs(busy)
	out["fl.train_cover_ms_per_round"] = perRoundMs(cover)
	// Training slots a round has: the simulator's worker budget, or every
	// sampled client at once on the networked runtime. The share of
	// slot-time left idle is what the last, partly filled wave wastes.
	slots := float64(min(w.perRound, pinParallelism))
	if w.net {
		slots = float64(w.perRound)
	}
	out["fl.dispatch_idle_share"] = 1 - busy/(slots*cover)
	out["fl.train_skew"] = skew / float64(rounds)
	out["fl.aggregate_ms_per_round"] = perRoundMs(agg)
	out["fl.aggregate_calls"] = float64(aggCalls) / nTraced
	// What is left of a round once the timed calls are taken out belongs
	// to the runtime that ran it.
	out["fl.round_self_ms"], out["flnet.round_self_ms"], out["flnet.self_share"] = 0, 0, 0
	if w.net {
		out["flnet.round_self_ms"] = perRoundMs(self)
		out["flnet.self_share"] = self / round
	} else {
		out["fl.round_self_ms"] = perRoundMs(self)
	}
	out["store.checkpoint_ms_per_round"] = perRoundMs(ckpt)
	out["store.checkpoint_calls"] = float64(ckptCalls) / nTraced
	out["fl.personalize_ms_per_client"] = median(persMs)

	var up, down, ckptBytes float64
	for _, r := range traced {
		up += float64(r.Up)
		down += float64(r.Down)
	}
	out["flnet.uplink_bytes_per_round"] = up / float64(rounds)
	out["flnet.downlink_bytes_per_round"] = down / float64(rounds)

	var envMs, methodMs, joinMs, persS []float64
	for _, r := range all {
		envMs = append(envMs, ms(r.EnvBuild))
		methodMs = append(methodMs, ms(r.MethodBuild))
		joinMs = append(joinMs, ms(r.Join))
		persS = append(persS, r.Personalize.Seconds())
		ckptBytes += float64(r.CheckpointBytes) / float64(w.rounds)
	}
	out["experiments.build_environment_ms"] = median(envMs)
	out["experiments.build_method_ms"] = median(methodMs)
	out["flnet.join_ms"] = median(joinMs)
	out["fl.personalize_s"] = median(persS)
	out["store.checkpoint_bytes_per_round"] = ckptBytes / float64(len(all))

	p50 := func(reps []*rep) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, r.RoundMs...)
		}
		return median(v)
	}
	bare := p50(untraced)
	out["bench.trace_overhead_pct"] = 100 * (p50(traced) - bare) / bare

	var ops opCount
	for _, r := range all {
		ops = ops.add(r.Ops)
	}
	out["bench.op_fail_rate"] = ops.failRate()
	for k, v := range qualityMetrics(all[0]) {
		out[k] = v
	}
	return out
}

// qualityMetrics are the paper's evaluation quantities for one
// federation: mean accuracy, its variance across clients (the fairness
// metric), the worst decile, and the mean over the novel clients.
func qualityMetrics(r *rep) map[string]float64 {
	p, n := eval.Summarize(r.PartAccs), eval.Summarize(r.NovelAccs)
	return map[string]float64{
		"eval.mean_acc":       100 * p.Mean,
		"eval.acc_var":        p.Variance,
		"eval.bottom10_acc":   100 * p.Bottom10,
		"eval.novel_mean_acc": 100 * n.Mean,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
