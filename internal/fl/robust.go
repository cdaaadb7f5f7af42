package fl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"calibre/internal/param"
	"calibre/internal/spec"
)

// The robust aggregators below defend the global model against byzantine
// updates by excluding part of their input by construction: coordinate-wise
// trimming (TrimmedMean), the coordinate-wise median (CoordinateMedian) and
// Krum's single-vector selection (Blanchard et al., NeurIPS 2017). They
// obey the same contract as the benign aggregators in aggregate.go —
// sharded over element ranges (or, for Krum's pairwise distances, over
// pairs) on the shared tensor kernel pool, bit-identical to a serial sweep
// at any pool size, never mutating global or the update payloads, always
// returning a vector borrowed from param's pool that every element is
// written into.
//
// Unlike WeightedAverage they deliberately ignore NumSamples: a
// sample-count weight is attacker-controlled metadata (a malicious client
// can claim any dataset size), so robust statistics over the raw
// per-coordinate values are the defense.

// ErrTooFewUpdates marks a round whose update count is below what the
// aggregation rule mechanically requires (e.g. Krum needs n ≥ F+3 so at
// least one honest neighborhood exists).
var ErrTooFewUpdates = errors.New("fl: too few updates for the aggregation rule")

// RobustAggregator is implemented by aggregation rules that exclude part
// of their input by construction. Rejected is a pure function of the
// ingested-update count — the per-round rejection accounting the runtimes
// feed into RoundStats.RejectedUpdates and the obs plane
// (aggregator_rejected_updates_total).
type RobustAggregator interface {
	Aggregator
	// Rejected reports how many of n ingested updates the rule excludes
	// from the aggregate by construction.
	Rejected(n int) int
}

// TrimmedMean is the coordinate-wise trimmed mean: for every coordinate the
// n update values are sorted and the lowest and highest ⌊Frac·n⌋ are
// discarded before averaging the rest. Frac must be in [0, 0.5); Frac = 0
// degenerates to the unweighted mean. It tolerates up to ⌊Frac·n⌋
// byzantine updates per coordinate.
type TrimmedMean struct {
	Frac float64
}

var _ RobustAggregator = TrimmedMean{}

// trimCount is the per-side trim ⌊Frac·n⌋. Frac < 0.5 guarantees
// 2·trimCount < n, so at least one value always survives.
func (t TrimmedMean) trimCount(n int) int {
	if t.Frac <= 0 {
		return 0
	}
	return int(t.Frac * float64(n))
}

// Rejected implements RobustAggregator: both trimmed tails.
func (t TrimmedMean) Rejected(n int) int { return 2 * t.trimCount(n) }

// String renders the canonical spec accepted by ParseAggregator.
func (t TrimmedMean) String() string { return spec.Format("trimmed", t.arg()) }

func (t *TrimmedMean) arg() spec.Slot {
	return spec.Float("frac", &t.Frac, 0, func(f float64) bool { return f >= 0 && f < 0.5 })
}

// Aggregate implements Aggregator.
func (t TrimmedMean) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	if t.Frac < 0 || t.Frac >= 0.5 || math.IsNaN(t.Frac) {
		return nil, fmt.Errorf("fl: trimmed mean frac must be in [0,0.5), got %g", t.Frac)
	}
	if err := checkUpdateSizes(global, updates); err != nil {
		return nil, err
	}
	n := len(updates)
	k := t.trimCount(n)
	inv := 1 / float64(n-2*k)
	out := param.Borrow(len(global))
	param.Shard(len(global), func(lo, hi int) {
		// One scratch row per shard call: each coordinate's result depends
		// only on that coordinate's sorted values, so shard boundaries can
		// never change the float operations.
		vals := make([]float64, n)
		for i := lo; i < hi; i++ {
			for j, u := range updates {
				vals[j] = u.Params[i]
			}
			sort.Float64s(vals)
			var sum float64
			for j := k; j < n-k; j++ {
				sum += vals[j]
			}
			out[i] = sum * inv
		}
	})
	return out, nil
}

// CoordinateMedian aggregates by the coordinate-wise median — the
// maximally trimmed mean. It tolerates up to ⌈n/2⌉−1 byzantine updates per
// coordinate and needs no tuning, at the cost of discarding almost all of
// the honest signal's averaging benefit.
type CoordinateMedian struct{}

var _ RobustAggregator = CoordinateMedian{}

// Rejected implements RobustAggregator: everything but the middle order
// statistic (or the middle pair, for even n).
func (CoordinateMedian) Rejected(n int) int {
	switch {
	case n <= 2:
		return 0
	case n%2 == 1:
		return n - 1
	default:
		return n - 2
	}
}

// String renders the canonical spec accepted by ParseAggregator.
func (CoordinateMedian) String() string { return "median" }

// Aggregate implements Aggregator.
func (CoordinateMedian) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	if err := checkUpdateSizes(global, updates); err != nil {
		return nil, err
	}
	n := len(updates)
	out := param.Borrow(len(global))
	param.Shard(len(global), func(lo, hi int) {
		vals := make([]float64, n)
		for i := lo; i < hi; i++ {
			for j, u := range updates {
				vals[j] = u.Params[i]
			}
			sort.Float64s(vals)
			if n%2 == 1 {
				out[i] = vals[n/2]
			} else {
				out[i] = (vals[n/2-1] + vals[n/2]) / 2
			}
		}
	})
	return out, nil
}

// Krum selects the single update closest to its n−F−2 nearest neighbors by
// squared Euclidean distance (Blanchard et al., NeurIPS 2017) and returns
// a copy of it as the next global vector. It tolerates up to F colluding
// byzantine clients but needs n ≥ F+3 updates per round so every candidate
// has at least one scoreable neighborhood.
type Krum struct {
	F int
}

var _ RobustAggregator = Krum{}

// Rejected implements RobustAggregator: every update but the selected one.
func (Krum) Rejected(n int) int {
	if n <= 1 {
		return 0
	}
	return n - 1
}

// String renders the canonical spec accepted by ParseAggregator.
func (k Krum) String() string { return spec.Format("krum", k.arg()) }

func (k *Krum) arg() spec.Slot { return spec.Int("f", &k.F, 0, func(f int) bool { return f >= 0 }) }

// Aggregate implements Aggregator.
func (k Krum) Aggregate(global param.Vector, updates []*Update) (param.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	if k.F < 0 {
		return nil, fmt.Errorf("fl: krum f must be ≥0, got %d", k.F)
	}
	n := len(updates)
	if n < k.F+3 {
		return nil, fmt.Errorf("%w: krum(%d) needs ≥ %d updates, got %d", ErrTooFewUpdates, k.F, k.F+3, n)
	}
	if err := checkUpdateSizes(global, updates); err != nil {
		return nil, err
	}
	// Pairwise squared distances, sharded over pairs — never over elements:
	// each pair's sum runs serially over the full vectors, so the float
	// operation order (and hence the bits) cannot depend on the pool size.
	nPairs := n * (n - 1) / 2
	dist := make([]float64, nPairs)
	pa := make([]int, nPairs)
	pb := make([]int, nPairs)
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pa[idx], pb[idx] = i, j
			idx++
		}
	}
	param.Shard(nPairs, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			a, b := updates[pa[p]].Params, updates[pb[p]].Params
			var s float64
			for e := range a {
				d := a[e] - b[e]
				s += d * d
			}
			dist[p] = s
		}
	})
	// pairAt recovers dist(i,j) for i < j from the triangular layout.
	pairAt := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return dist[i*(2*n-i-1)/2+(j-i-1)]
	}
	// Score each candidate by the sum of its n−F−2 smallest neighbor
	// distances; lowest score wins, ties broken by the smaller index so the
	// selection is deterministic.
	neighbors := n - k.F - 2
	best := -1
	var bestScore float64
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, pairAt(i, j))
			}
		}
		sort.Float64s(row)
		var score float64
		for j := 0; j < neighbors; j++ {
			score += row[j]
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	out := param.Borrow(len(global))
	copy(out, updates[best].Params)
	return out, nil
}

// ParseAggregator parses an aggregator override spec (internal/spec
// grammar): "mean" (the sample-weighted FedAvg mean; also the empty
// string), "median", "trimmed(FRAC)" with FRAC in [0,0.5), or "krum(F)"
// with F ≥ 0. The String methods of the returned aggregators render the
// canonical spelling, so Parse∘String round-trips.
func ParseAggregator(s string) (Aggregator, error) {
	if s == "" {
		return WeightedAverage{}, nil
	}
	name, args, err := spec.Split(s)
	var t TrimmedMean
	var k Krum
	switch {
	case err != nil:
	case name == "mean" && len(args) == 0:
		return WeightedAverage{}, nil
	case name == "median" && len(args) == 0:
		return CoordinateMedian{}, nil
	case name == "trimmed" && len(args) == 1 && spec.Bind(args, t.arg()) == nil:
		return t, nil
	case name == "krum" && len(args) == 1 && spec.Bind(args, k.arg()) == nil:
		return k, nil
	}
	return nil, fmt.Errorf("fl: bad aggregator %q (want mean, median, trimmed(frac) with frac in [0,0.5), or krum(f) with f ≥ 0)", s)
}

// String renders the canonical spec accepted by ParseAggregator.
func (WeightedAverage) String() string { return "mean" }
