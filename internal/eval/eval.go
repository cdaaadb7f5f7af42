// Package eval computes the paper's evaluation quantities: per-client
// accuracy summaries (mean = overall performance, variance = fairness),
// representation-quality metrics (cluster purity, intra/inter distance ratio) used to
// quantify the t-SNE figures, and method comparisons.
package eval

import (
	"fmt"
	"math"
	"sort"

	"calibre/internal/tensor"
)

// Summary aggregates a set of per-client test accuracies.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance — the paper's fairness metric
	Std      float64
	Min      float64
	Max      float64
	Median   float64
	// Bottom10 is the mean accuracy of the worst decile of clients, a
	// tail-fairness view.
	Bottom10 float64
}

// Summarize computes a Summary over per-client accuracies.
func Summarize(accs []float64) Summary {
	n := len(accs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, a := range accs {
		s.Mean += a
		if a < s.Min {
			s.Min = a
		}
		if a > s.Max {
			s.Max = a
		}
	}
	s.Mean /= float64(n)
	for _, a := range accs {
		d := a - s.Mean
		s.Variance += d * d
	}
	s.Variance /= float64(n)
	s.Std = math.Sqrt(s.Variance)

	sorted := append([]float64(nil), accs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	decile := n / 10
	if decile < 1 {
		decile = 1
	}
	var bot float64
	for _, a := range sorted[:decile] {
		bot += a
	}
	s.Bottom10 = bot / float64(decile)
	return s
}

// String renders the summary in the paper's mean±std convention.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (var %.4f, n=%d)", s.Mean*100, s.Std*100, s.Variance, s.N)
}

// MethodResult pairs a method name with its accuracy summary, plus the raw
// per-client accuracies for downstream plotting.
type MethodResult struct {
	Method  string
	Summary Summary
	Accs    []float64
}

// RankByMean sorts results by mean accuracy, best first.
func RankByMean(results []MethodResult) []MethodResult {
	out := append([]MethodResult(nil), results...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Summary.Mean > out[j].Summary.Mean
	})
	return out
}

// ClusterPurity measures how well unsupervised clusters align with true
// labels: each cluster votes for its majority label; purity is the
// fraction of points whose cluster vote matches their label.
func ClusterPurity(assign, labels []int) (float64, error) {
	if len(assign) != len(labels) {
		return 0, fmt.Errorf("eval: %d assignments vs %d labels", len(assign), len(labels))
	}
	if len(assign) == 0 {
		return 0, nil
	}
	votes := make(map[int]map[int]int)
	for i, c := range assign {
		if votes[c] == nil {
			votes[c] = make(map[int]int)
		}
		votes[c][labels[i]]++
	}
	var pure int
	for _, v := range votes {
		best := 0
		for _, n := range v {
			if n > best {
				best = n
			}
		}
		pure += best
	}
	return float64(pure) / float64(len(assign)), nil
}

// IntraInterRatio returns mean intra-class distance divided by mean
// inter-class distance in representation space; below 1 means classes are
// compact relative to their separation (lower is crisper).
func IntraInterRatio(feats *tensor.Tensor, labels []int) float64 {
	n := feats.Rows()
	if n < 2 {
		return 0
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Sqrt(tensor.SqDist(feats.Row(i), feats.Row(j)))
			if labels[i] == labels[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 || inter == 0 {
		return 0
	}
	return (intra / float64(nIntra)) / (inter / float64(nInter))
}

// Improvement returns the percentage-point difference in mean accuracy of a
// over b (positive = a better), matching how the paper reports margins
// ("outperforms by 1.71%").
func Improvement(a, b Summary) float64 {
	return (a.Mean - b.Mean) * 100
}

// VarianceReduction returns the relative variance reduction of a vs b in
// percent (positive = a fairer), e.g. the paper's "23.8% reduction in
// variance compared to FedAvg-FT".
func VarianceReduction(a, b Summary) float64 {
	return VarianceReductionOf(a.Variance, b.Variance)
}
