// Package partition implements the label non-i.i.d. client partitioning
// schemes from the Calibre paper: quantity-based (Q-non-i.i.d., a fixed
// number S of classes per client) and distribution-based (D-non-i.i.d.,
// per-client class proportions drawn from a Dirichlet distribution), plus a
// uniform i.i.d. control.
package partition

import (
	"fmt"
	"math"
	"math/rand"

	"calibre/internal/data"
)

// Client holds one client's local data after partitioning.
type Client struct {
	ID        int
	Train     *data.Dataset
	Test      *data.Dataset
	Unlabeled *data.Dataset // nil unless an unlabeled pool was distributed
}

// TrainFrac is the fraction of each client's local samples used for
// training; the remainder is the local test set (class distribution is
// consistent between the two because both come from the same local split).
const TrainFrac = 0.8

// classPool cycles through the sample indices of one class, reshuffling at
// wrap-around so small global datasets can still serve many clients
// (documented sample reuse; see ARCHITECTURE.md "Synthetic substitutions").
type classPool struct {
	rng *rand.Rand
	idx []int
	cur int
}

func newClassPool(rng *rand.Rand, idx []int) *classPool {
	p := &classPool{rng: rng, idx: append([]int(nil), idx...)}
	p.rng.Shuffle(len(p.idx), func(i, j int) { p.idx[i], p.idx[j] = p.idx[j], p.idx[i] })
	return p
}

func (p *classPool) take(n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		if len(p.idx) == 0 {
			break
		}
		if p.cur >= len(p.idx) {
			p.rng.Shuffle(len(p.idx), func(i, j int) { p.idx[i], p.idx[j] = p.idx[j], p.idx[i] })
			p.cur = 0
		}
		out = append(out, p.idx[p.cur])
		p.cur++
	}
	return out
}

// QuantityNonIID assigns each of numClients clients exactly classesPerClient
// classes and samplesPerClient samples (split evenly across its classes).
// Class sets rotate round-robin so every class is covered. This is the
// paper's (S, #samples) setting.
func QuantityNonIID(rng *rand.Rand, ds *data.Dataset, numClients, classesPerClient, samplesPerClient int) ([][]int, error) {
	k := ds.NumClasses
	if classesPerClient < 1 || classesPerClient > k {
		return nil, fmt.Errorf("partition: classesPerClient %d out of range [1,%d]", classesPerClient, k)
	}
	if numClients < 1 {
		return nil, fmt.Errorf("partition: numClients %d < 1", numClients)
	}
	pools := makePools(rng, ds)
	out := make([][]int, numClients)
	// Rotate through a shuffled class order so class coverage is balanced
	// across clients.
	order := rng.Perm(k)
	pos := 0
	for c := 0; c < numClients; c++ {
		classes := make([]int, classesPerClient)
		for s := 0; s < classesPerClient; s++ {
			classes[s] = order[pos%k]
			pos++
		}
		per := samplesPerClient / classesPerClient
		rem := samplesPerClient % classesPerClient
		var idx []int
		for s, cls := range classes {
			n := per
			if s < rem {
				n++
			}
			idx = append(idx, pools[cls].take(n)...)
		}
		out[c] = idx
	}
	return out, nil
}

// DirichletNonIID assigns each client samplesPerClient samples whose class
// proportions are drawn from Dirichlet(alpha) over the classes, the paper's
// (alpha, #samples) D-non-i.i.d. setting. Smaller alpha means more skew.
func DirichletNonIID(rng *rand.Rand, ds *data.Dataset, numClients int, alpha float64, samplesPerClient int) ([][]int, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("partition: alpha must be positive, got %v", alpha)
	}
	if numClients < 1 {
		return nil, fmt.Errorf("partition: numClients %d < 1", numClients)
	}
	k := ds.NumClasses
	pools := makePools(rng, ds)
	out := make([][]int, numClients)
	for c := 0; c < numClients; c++ {
		props := dirichlet(rng, alpha, k)
		counts := multinomialCounts(rng, props, samplesPerClient)
		var idx []int
		for cls, n := range counts {
			if n == 0 {
				continue
			}
			idx = append(idx, pools[cls].take(n)...)
		}
		out[c] = idx
	}
	return out, nil
}

// IID assigns each client samplesPerClient samples drawn uniformly from the
// dataset.
func IID(rng *rand.Rand, ds *data.Dataset, numClients, samplesPerClient int) ([][]int, error) {
	if numClients < 1 {
		return nil, fmt.Errorf("partition: numClients %d < 1", numClients)
	}
	n := ds.Len()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty dataset")
	}
	out := make([][]int, numClients)
	perm := rng.Perm(n)
	cur := 0
	for c := 0; c < numClients; c++ {
		idx := make([]int, 0, samplesPerClient)
		for len(idx) < samplesPerClient {
			if cur >= len(perm) {
				perm = rng.Perm(n)
				cur = 0
			}
			idx = append(idx, perm[cur])
			cur++
		}
		out[c] = idx
	}
	return out, nil
}

func makePools(rng *rand.Rand, ds *data.Dataset) []*classPool {
	byClass := ds.ClassIndices()
	pools := make([]*classPool, len(byClass))
	for c, idx := range byClass {
		pools[c] = newClassPool(rng, idx)
	}
	return pools
}

// dirichlet samples a symmetric Dirichlet(alpha) distribution over k
// categories using Gamma(alpha,1) draws (Marsaglia–Tsang).
func dirichlet(rng *rand.Rand, alpha float64, k int) []float64 {
	out := make([]float64, k)
	var sum float64
	for i := range out {
		out[i] = gammaSample(rng, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw: fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia–Tsang, with the
// standard boost for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		if u == 0 {
			u = 1e-300
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// multinomialCounts draws n samples into k categories with the given
// proportions.
func multinomialCounts(rng *rand.Rand, props []float64, n int) []int {
	counts := make([]int, len(props))
	cdf := make([]float64, len(props))
	var acc float64
	for i, p := range props {
		acc += p
		cdf[i] = acc
	}
	for i := 0; i < n; i++ {
		u := rng.Float64() * acc
		// Linear scan is fine: class counts are small (≤100).
		j := 0
		for j < len(cdf)-1 && u > cdf[j] {
			j++
		}
		counts[j]++
	}
	return counts
}

// BuildClients materializes Client structs from per-client index sets:
// each client's local samples are split TrainFrac/1-TrainFrac into local
// train and test sets, and the optional unlabeled pool is divided evenly
// across clients.
func BuildClients(rng *rand.Rand, ds *data.Dataset, assignments [][]int, unlabeled *data.Dataset) []*Client {
	clients := make([]*Client, len(assignments))
	var unl [][]int
	if unlabeled != nil && unlabeled.Len() > 0 && len(assignments) > 0 {
		unl = splitEvenly(rng, unlabeled.Len(), len(assignments))
	}
	for i, idx := range assignments {
		local := ds.Subset(idx)
		train, test := local.Split(rng, TrainFrac)
		c := &Client{ID: i, Train: train, Test: test}
		if unl != nil {
			c.Unlabeled = unlabeled.Subset(unl[i])
		}
		clients[i] = c
	}
	return clients
}

// CorruptTrainLabels flips each client's *training* labels to a uniformly
// random different class with probability frac; local test labels stay
// clean. This models real-world annotation noise: label-dependent training
// (supervised FL) absorbs it during representation learning, while
// unsupervised training stages do not — only their personalization heads
// see the noisy labels.
func CorruptTrainLabels(rng *rand.Rand, clients []*Client, frac float64, numClasses int) {
	if frac <= 0 || numClasses < 2 {
		return
	}
	for _, c := range clients {
		for i, y := range c.Train.Y {
			if y < 0 || rng.Float64() >= frac {
				continue
			}
			flip := rng.Intn(numClasses - 1)
			if flip >= y {
				flip++
			}
			c.Train.Y[i] = flip
		}
	}
}

func splitEvenly(rng *rand.Rand, n, parts int) [][]int {
	perm := rng.Perm(n)
	out := make([][]int, parts)
	per := n / parts
	cur := 0
	for i := 0; i < parts; i++ {
		take := per
		if i < n%parts {
			take++
		}
		out[i] = append([]int(nil), perm[cur:cur+take]...)
		cur += take
	}
	return out
}
