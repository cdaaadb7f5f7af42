package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to be more than a single outlier's value.
const minTailSamples = 10

// tailPercentile picks the highest percentile, at most limit, that still
// has minTailSamples of n samples beyond it. With too few samples for any
// tail it degrades to the median, so a short run reports a percentile it
// can stand behind instead of the named one.
func tailPercentile(n int, limit float64) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		// The epsilon keeps 10000 × 0.1% from rounding down to 9.
		if p <= limit && int(float64(n)*(100-p)/100+1e-9) >= minTailSamples {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median — the run-to-run spread the acceptance rule
// uses. Quartiles follow Python's statistics.quantiles(v, n=4) (the
// exclusive method), so the number matches what the driver computes.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	m1 := len(s) + 1
	q := func(i int) float64 {
		j := i * m1 / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m1 - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := percentile(s, 50)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// calibrated scales each raw interval to the speed of an undisturbed
// host: by nominal over the median of the calibrations taken within
// window intervals of it. calib[i] was taken just before interval i and
// calib[i+1] just after, so len(calib) = len(raw)+1.
func calibrated(raw, calib []float64, window int, nominal float64) []float64 {
	out := make([]float64, len(raw))
	for i, x := range raw {
		lo, hi := max(0, i-window), min(len(calib), i+window+2)
		out[i] = x * nominal / median(calib[lo:hi])
	}
	return out
}
