package eval

import "sort"

// SeedAggregate condenses one scenario's per-seed accuracy summaries (one
// Summary per replicate seed) into the sweep report's cross-seed view. It
// separates two very different spreads: VarOfMeans is the run-to-run
// stability of the headline accuracy, while MeanVariance / VarOfVariance
// describe the fairness metric itself — how unequal per-client accuracy
// is on average, and how reproducible that inequality measurement is
// across seeds (the "variance of variance").
type SeedAggregate struct {
	// Runs is the number of per-seed summaries aggregated.
	Runs int
	// MeanOfMeans averages the per-seed mean accuracies.
	MeanOfMeans float64
	// VarOfMeans is the population variance of the per-seed means.
	VarOfMeans float64
	// MeanVariance averages the per-seed fairness variances.
	MeanVariance float64
	// VarOfVariance is the population variance of the per-seed fairness
	// variances.
	VarOfVariance float64
	// MeanBottom10 averages the per-seed worst-decile accuracies.
	MeanBottom10 float64
}

// AggregateSeeds folds per-seed summaries into a SeedAggregate. The
// result is bit-identical whatever the input order: float addition is not
// associative, so the summaries are folded in a canonical (sorted) order
// internally. That is what lets a sweep scheduler complete cells in any
// interleaving and still emit byte-identical reports.
func AggregateSeeds(summaries []Summary) SeedAggregate {
	n := len(summaries)
	if n == 0 {
		return SeedAggregate{}
	}
	sorted := append([]Summary(nil), summaries...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		switch {
		case a.Mean != b.Mean:
			return a.Mean < b.Mean
		case a.Variance != b.Variance:
			return a.Variance < b.Variance
		default:
			return a.Bottom10 < b.Bottom10
		}
	})
	agg := SeedAggregate{Runs: n}
	for _, s := range sorted {
		agg.MeanOfMeans += s.Mean
		agg.MeanVariance += s.Variance
		agg.MeanBottom10 += s.Bottom10
	}
	agg.MeanOfMeans /= float64(n)
	agg.MeanVariance /= float64(n)
	agg.MeanBottom10 /= float64(n)
	for _, s := range sorted {
		dm := s.Mean - agg.MeanOfMeans
		dv := s.Variance - agg.MeanVariance
		agg.VarOfMeans += dm * dm
		agg.VarOfVariance += dv * dv
	}
	agg.VarOfMeans /= float64(n)
	agg.VarOfVariance /= float64(n)
	return agg
}

// ParetoPoint is one candidate on the accuracy/fairness plane: Mean is
// maximized, Variance minimized.
type ParetoPoint struct {
	Label    string
	Mean     float64
	Variance float64
}

// ParetoFront returns the non-dominated subset of points — those for
// which no other point has both accuracy at least as high and variance at
// least as low, with one strictly better. Exact duplicates on the plane
// survive together. The front is returned sorted by Mean descending
// (Variance, then Label, break ties), so output order is deterministic
// whatever the input order.
func ParetoFront(points []ParetoPoint) []ParetoPoint {
	var front []ParetoPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Mean >= p.Mean && q.Variance <= p.Variance &&
				(q.Mean > p.Mean || q.Variance < p.Variance) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		switch {
		case front[i].Mean != front[j].Mean:
			return front[i].Mean > front[j].Mean
		case front[i].Variance != front[j].Variance:
			return front[i].Variance < front[j].Variance
		default:
			return front[i].Label < front[j].Label
		}
	})
	return front
}

// VarianceReductionOf is the relative reduction of variance a vs variance
// b in percent (positive = a fairer), e.g. the paper's "23.8% reduction in
// variance compared to FedAvg-FT". The sweep report uses it on cross-seed
// mean variances.
func VarianceReductionOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (1 - a/b) * 100
}
