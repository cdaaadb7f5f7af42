// Package tsne implements exact t-distributed Stochastic Neighbor Embedding
// (van der Maaten & Hinton, 2008), used to regenerate the paper's
// representation-visualization figures (Figs. 1, 2, 5-8). Exact O(n²)
// affinities are fine at this reproduction's scale (hundreds to a couple
// thousand points per figure).
package tsne

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/tensor"
)

// Config controls an embedding run.
type Config struct {
	// Perplexity balances local/global structure (typical 5-50).
	Perplexity float64
	// Iters is the number of gradient steps (300 when < 1).
	Iters int
}

// The embedding is two-dimensional; its gradient steps run at a fixed
// learning rate, with the affinities multiplied by earlyExaggeration for
// the first quarter of the iterations.
const (
	outputDims        = 2
	learningRate      = 100
	earlyExaggeration = 4
	defaultIters      = 300
)

// DefaultConfig returns sensible settings for figure-scale inputs.
func DefaultConfig() Config {
	return Config{Perplexity: 20, Iters: defaultIters}
}

// Embed computes a low-dimensional embedding of the rows of x.
func Embed(rng *rand.Rand, x *tensor.Tensor, cfg Config) (*tensor.Tensor, error) {
	n := x.Rows()
	if n < 2 {
		return nil, fmt.Errorf("tsne: need ≥2 points, got %d", n)
	}
	if cfg.Iters < 1 {
		cfg.Iters = defaultIters
	}
	perp := cfg.Perplexity
	maxPerp := float64(n-1) / 3
	if perp > maxPerp {
		perp = maxPerp // keep the bisection solvable for tiny inputs
	}
	if perp < 2 {
		perp = 2
	}

	p := jointAffinities(x, perp)
	// Early exaggeration.
	exagIters := cfg.Iters / 4
	for i := range p {
		p[i] *= earlyExaggeration
	}

	y := tensor.RandN(rng, 1e-2, n, outputDims)
	vel := tensor.New(n, outputDims)
	grad := tensor.New(n, outputDims)
	q := make([]float64, n*n)
	num := make([]float64, n*n)

	for iter := 0; iter < cfg.Iters; iter++ {
		if iter == exagIters {
			inv := 1.0 / earlyExaggeration
			for i := range p {
				p[i] *= inv
			}
		}
		momentum := 0.5
		if iter >= 250 {
			momentum = 0.8
		}
		// Student-t similarities in embedding space.
		var qsum float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				t := 1 / (1 + tensor.SqDist(y.Row(i), y.Row(j)))
				num[i*n+j] = t
				num[j*n+i] = t
				qsum += 2 * t
			}
		}
		if qsum == 0 {
			qsum = 1
		}
		for i := range q {
			q[i] = math.Max(num[i]/qsum, 1e-12)
		}
		// Gradient: 4 Σ_j (p_ij - q_ij) num_ij (y_i - y_j).
		grad.Zero()
		for i := 0; i < n; i++ {
			gi := grad.Row(i)
			yi := y.Row(i)
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				mult := 4 * (p[i*n+j] - q[i*n+j]) * num[i*n+j]
				yj := y.Row(j)
				for d := range gi {
					gi[d] += mult * (yi[d] - yj[d])
				}
			}
		}
		// Momentum gradient descent.
		for i := 0; i < n; i++ {
			vi := vel.Row(i)
			yi := y.Row(i)
			gi := grad.Row(i)
			for d := range yi {
				vi[d] = momentum*vi[d] - learningRate*gi[d]
				yi[d] += vi[d]
			}
		}
		centerRows(y)
	}
	return y, nil
}

// jointAffinities computes symmetrized p_ij with per-point bandwidths found
// by binary search to match the target perplexity.
func jointAffinities(x *tensor.Tensor, perplexity float64) []float64 {
	n := x.Rows()
	d2 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dd := tensor.SqDist(x.Row(i), x.Row(j))
			d2[i*n+j] = dd
			d2[j*n+i] = dd
		}
	}
	logPerp := math.Log(perplexity)
	p := make([]float64, n*n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := 0.0, math.Inf(1)
		beta := 1.0
		for iter := 0; iter < 50; iter++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				row[j] = math.Exp(-d2[i*n+j] * beta)
				sum += row[j]
			}
			if sum == 0 {
				sum = 1e-300
			}
			// Shannon entropy of the conditional distribution.
			var h float64
			for j := 0; j < n; j++ {
				if j == i || row[j] == 0 {
					continue
				}
				pj := row[j] / sum
				h -= pj * math.Log(pj)
			}
			diff := h - logPerp
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 { // entropy too high → tighten
				lo = beta
				if math.IsInf(hi, 1) {
					beta *= 2
				} else {
					beta = (beta + hi) / 2
				}
			} else {
				hi = beta
				beta = (beta + lo) / 2
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				row[j] = math.Exp(-d2[i*n+j] * beta)
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			sum += row[j]
		}
		if sum == 0 {
			sum = 1e-300
		}
		for j := 0; j < n; j++ {
			p[i*n+j] = row[j] / sum
		}
	}
	// Symmetrize and normalize: p_ij = (p_j|i + p_i|j) / 2n.
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = math.Max((p[i*n+j]+p[j*n+i])/(2*float64(n)), 1e-12)
		}
	}
	return out
}

func centerRows(y *tensor.Tensor) {
	means := y.ColMeans()
	n, d := y.Rows(), y.Cols()
	for i := 0; i < n; i++ {
		row := y.Row(i)
		for j := 0; j < d; j++ {
			row[j] -= means[j]
		}
	}
}
