// Package core implements Calibre, the paper's contribution: a contrastive
// prototype adaptation mechanism that calibrates self-supervised
// representations for personalized federated learning.
//
// During each client's local update, pseudo-labels are generated by
// clustering the batch encodings (KMeans). Two regularizers are added to
// the base SSL objective (paper §IV-B, Algorithm 1):
//
//   - L_n, a prototype-based meta regularizer: encodings of one augmented
//     view are classified against prototypes computed from the other view
//     (prototypical cross-entropy), injecting cluster structure into the
//     representation.
//   - L_p, a prototype-oriented contrastive regularizer: per-cluster
//     prototypes of the projector outputs from the two views form positive
//     pairs in an NT-Xent loss, reducing prototype variance across views.
//
// The total training-stage loss is L = l_s + α(L_p + L_n), where l_s is
// whatever SSL method Calibre wraps. (The theorem's l_c term is the
// supervised classification loss; it applies in the personalization stage,
// where each client trains a linear head with cross-entropy.)
//
// After the local update, each client's mean encoding-to-prototype distance
// is its divergence rate, which the server uses as an aggregation weight
// (fl.DivergenceWeighted).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"calibre/internal/kmeans"
	"calibre/internal/nn"
	"calibre/internal/ssl"
	"calibre/internal/tensor"
)

// Options configures Calibre.
type Options struct {
	// Alpha weighs the prototype regularizers (paper: 0.3).
	Alpha float64
	// Tau is the temperature of the prototype losses (shared with NT-Xent).
	Tau float64
	// NumClusters is K for the per-batch KMeans pseudo-labeling.
	NumClusters int
	// UseLn / UseLp toggle the two regularizers (Table I ablation).
	UseLn bool
	UseLp bool
	// AggTemperature controls the divergence-weighted aggregation softmax.
	AggTemperature float64
	// WarmupRounds delays the prototype regularizers: for the first
	// WarmupRounds federated rounds clients train with the plain SSL
	// objective so that clustering runs on a partially style-invariant
	// representation instead of chasing raw appearance factors.
	WarmupRounds int
	// KeepFrac is the confidence filter for pseudo-labels: only the
	// KeepFrac fraction of samples with the largest assignment margin
	// (distance to runner-up cluster minus distance to own cluster)
	// contribute to the prototype losses. Boundary samples, which are the
	// likeliest to be misclustered, are excluded so the regularizer cannot
	// pull them toward a wrong prototype. 0 disables filtering.
	KeepFrac float64
	// FixedK disables the adaptive cluster-count selection and always
	// clusters into NumClusters groups (design-choice ablation).
	FixedK bool
	// NoQualityGate disables the silhouette gate on the regularizers
	// (design-choice ablation).
	NoQualityGate bool
}

// DefaultOptions returns the paper's settings (α=0.3, both regularizers).
func DefaultOptions() Options {
	return Options{
		Alpha:          0.3,
		Tau:            0.5,
		NumClusters:    10,
		UseLn:          true,
		UseLp:          true,
		AggTemperature: 1,
		WarmupRounds:   10,
		KeepFrac:       0.6,
	}
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.Alpha < 0 {
		return fmt.Errorf("core: alpha must be ≥0, got %v", o.Alpha)
	}
	if o.Tau <= 0 {
		return fmt.Errorf("core: tau must be >0, got %v", o.Tau)
	}
	if o.NumClusters < 2 {
		return fmt.Errorf("core: need ≥2 clusters, got %d", o.NumClusters)
	}
	return nil
}

// SelectK picks a cluster count for a batch of encodings by maximizing the
// silhouette score over a small candidate grid up to maxK. This keeps the
// prototype regularizers client-adaptive (paper §IV-B): a client whose
// local data spans two classes gets two prototypes, not ten fragmented
// ones — fragmentation would push same-class samples apart.
func SelectK(rng *rand.Rand, x *tensor.Tensor, maxK int) (*kmeans.Result, error) {
	res, _, err := SelectKIn(nil, nil, rng, x, maxK)
	return res, err
}

// SelectKIn is SelectK with its distance tables borrowed from arena and its
// clusterings run in ws (either nil: the heap), which it leaves holding the
// result until the next clustering in ws: the same result, bit for bit,
// allocation-free once arena and ws have seen x's shape. It also returns the
// winner's silhouette score. The candidates are clustered in ws, which holds
// the best so far while the later ones run, and all scored from one fill of
// borrowTables.
func SelectKIn(arena *tensor.Arena, ws *kmeans.Workspace, rng *rand.Rand, x *tensor.Tensor, maxK int) (*kmeans.Result, float64, error) {
	n := x.Rows()
	if maxK > n {
		maxK = n
	}
	if maxK < 2 {
		maxK = 2
	}
	buf, sq, dist, sums := borrowTables(arena, x)
	defer arena.Put(buf)
	var best *kmeans.Result
	bestScore := math.Inf(-1)
	// The grid ascends up to its last entry, so maxK repeats a grid value
	// exactly when that value was the last one tried.
	tried := 0
	for _, k := range [...]int{2, 3, 4, 6, 8, maxK} {
		if k > maxK || k == tried {
			continue
		}
		tried = k
		res, err := ws.Run(rng, x, kmeans.Config{K: k, PairSq: sq})
		if err != nil {
			return nil, 0, err
		}
		if score := res.Silhouette(dist, sums); score > bestScore {
			bestScore = score
			best = res
			ws.Hold()
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("core: no viable cluster count up to %d", maxK)
	}
	return best, bestScore, nil
}

// fixedK clusters x into k groups in ws and returns the clustering with its
// silhouette score, whatever the score is: a NaN one included, which
// SelectKIn's search would refuse. Its tables come from one borrowTables.
func fixedK(arena *tensor.Arena, ws *kmeans.Workspace, rng *rand.Rand, x *tensor.Tensor, k int) (*kmeans.Result, float64, error) {
	buf, sq, dist, sums := borrowTables(arena, x)
	defer arena.Put(buf)
	res, err := ws.Run(rng, x, kmeans.Config{K: k, PairSq: sq})
	if err != nil {
		return nil, 0, err
	}
	return res, res.Silhouette(dist, sums), nil
}

// borrowTables borrows one buffer of 2n²+4n floats from arena (nil: the
// heap) for the n rows of x, to be handed back with arena.Put(buf), and fills
// the two square tables at its head with kmeans.PairTablesInto: sq, which a
// clustering of x reads for its seeding and first assignment, and dist, from
// which Result.Silhouette scores it in sums, the last 4n floats. A
// clustering's score depends on x only through these distances, so every
// candidate clustering of x is scored from one fill.
func borrowTables(arena *tensor.Arena, x *tensor.Tensor) (buf, sq, dist, sums []float64) {
	n := x.Rows()
	buf = arena.GetUninit(2*n*n + 4*n)
	sq, dist, sums = buf[:n*n], buf[n*n:2*n*n], buf[2*n*n:]
	kmeans.PairTablesInto(sq, dist, x)
	return buf, sq, dist, sums
}

// Regularizer computes the Calibre loss terms for one step.
type Regularizer struct {
	Opts Options
}

// NewRegularizer validates options and builds a regularizer.
func NewRegularizer(opts Options) (*Regularizer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Regularizer{Opts: opts}, nil
}

// Apply returns methodLoss + α(L_p + L_n) for the step. When the batch is
// too small, the clustering is not trusted (silhouette ≤ 0 or NaN) or it
// degenerates (fewer than two clusters keep a confident member), the terms
// are skipped — the base SSL loss always remains. An error is a clustering
// that could not run at all, and fails the step.
func (r *Regularizer) Apply(ctx *ssl.StepContext, methodLoss *nn.Node) (*nn.Node, error) {
	if r.Opts.Alpha == 0 || (!r.Opts.UseLn && !r.Opts.UseLp) {
		return methodLoss, nil
	}
	reg, err := r.lossTerms(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: pseudo-label clustering: %w", err)
	}
	if reg == nil {
		return methodLoss, nil
	}
	return nn.Add(methodLoss, nn.Scale(reg, r.Opts.Alpha)), nil
}

// lossTerms builds L_n + L_p (whichever are enabled and computable);
// returns nil when neither could be formed. Everything it builds is the
// step's: tensors and index tables borrowed from ctx.Tape, the clustering
// in ctx.KMeans.
func (r *Regularizer) lossTerms(ctx *ssl.StepContext) (*nn.Node, error) {
	n := ctx.Z1.Value.Rows()
	if n < 2 {
		return nil, nil
	}
	tp := ctx.Tape
	// Pseudo-labels: KMeans over the batch representations (Algorithm 1
	// line 13), without gradient. Three refinements keep the pseudo-labels
	// client-adaptive and content-aligned:
	//   - the cluster count adapts to the batch (SelectK), so clients with
	//     few local classes get few prototypes;
	//   - clustering runs on the per-pair mean of the two views, so
	//     augmentation jitter partially cancels and the two views of one
	//     sample share a pseudo-label by construction;
	//   - clustering uses the L2-normalized projector outputs h — the
	//     space the SSL objective makes augmentation-invariant — so the
	//     clusters track content rather than residual style magnitude.
	d := ctx.H1.Value.Cols()
	h1n, h2n, pairMean := tp.Tensor(n, d), tp.Tensor(n, d), tp.Tensor(n, d)
	mustNormalizeRows(h1n, ctx.H1.Value)
	mustNormalizeRows(h2n, ctx.H2.Value)
	for i := 0; i < n; i++ {
		a := h1n.Row(i)
		b := h2n.Row(i)
		row := pairMean.Row(i)
		for j := range row {
			row[j] = (a[j] + b[j]) / 2
		}
	}
	var res *kmeans.Result
	var score float64 // the silhouette of res on pairMean
	var err error
	if r.Opts.FixedK {
		res, score, err = fixedK(ctx.Arena, ctx.KMeans, ctx.RNG, pairMean, min(r.Opts.NumClusters, n))
	} else {
		res, score, err = SelectKIn(ctx.Arena, ctx.KMeans, ctx.RNG, pairMean, r.Opts.NumClusters)
	}
	if err != nil {
		return nil, err
	}
	// Quality gate: the regularizers are scaled by the clustering's
	// silhouette score. Genuine class structure produces separated modes
	// (high silhouette); nuisance style is continuous and cannot, so a low
	// score means the pseudo-labels are untrustworthy and the calibration
	// signal is attenuated. This keeps the prototype losses client- and
	// batch-adaptive, per the paper's design intent. A NaN score (the
	// fixed-K rule keeps whatever its one clustering scores) is no trust
	// either: only a positive gate lets the terms through.
	gate := 1.0
	if !r.Opts.NoQualityGate {
		gate = score
		if !(gate > 0) {
			return nil, nil
		}
	}
	confident := confidentMembers(tp, pairMean, res.Centers, res.Assign, r.Opts.KeepFrac)
	// Pair indices per cluster (shared by the two views), clusters that
	// kept no confident member dropped: rows holds the members cluster by
	// cluster, assign their cluster's index among the kept ones.
	k := res.Centers.Rows()
	sizes := tp.Ints(k)
	for _, i := range confident {
		sizes[res.Assign[i]]++
	}
	groups, rows := tp.IntRows(k), tp.Ints(len(confident))
	off := 0
	for c, size := range sizes {
		groups[c] = rows[off : off : off+size]
		off += size
	}
	for _, i := range confident {
		groups[res.Assign[i]] = append(groups[res.Assign[i]], i)
	}
	keptE := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			keptE = append(keptE, g)
		}
	}
	if len(keptE) < 2 {
		return nil, nil // prototype losses need ≥2 distinguishable clusters
	}
	keptO := keptE // pair-level clusters: identical membership per view

	var total *nn.Node
	if r.Opts.UseLn {
		// L_n: prototypes from view o's encodings; view e's encodings are
		// classified against them (prototypical cross-entropy).
		protos := nn.GroupMean(ctx.Z2, keptO)
		assign := tp.Ints(len(rows))
		at := 0
		for newID, g := range keptE {
			for range g {
				assign[at] = newID
				at++
			}
		}
		zE := nn.GatherRows(ctx.Z1, rows)
		ln := nn.PrototypeCE(zE, protos, assign, r.Opts.Tau)
		total = ln
	}
	if r.Opts.UseLp {
		// L_p: dual-view prototypes of the projector outputs contrast as
		// positive pairs.
		protoE := nn.GroupMean(ctx.H1, keptE)
		protoO := nn.GroupMean(ctx.H2, keptO)
		lp := nn.PairNTXent(protoE, protoO, r.Opts.Tau)
		if total == nil {
			total = lp
		} else {
			total = nn.Add(total, lp)
		}
	}
	if total == nil {
		return nil, nil
	}
	return nn.Scale(total, gate), nil
}

func mustNormalizeRows(dst, src *tensor.Tensor) {
	if err := tensor.L2NormalizeRowsInto(dst, src, 1e-12); err != nil {
		panic(err) // unreachable: dst was built with src's shape
	}
}

// confidentMembers returns, ascending, the indices of the keepFrac fraction
// of points with the largest assignment margin (distance to runner-up center
// minus distance to own center). keepFrac ≤ 0 or ≥ 1 keeps everyone. The
// result and the scratch behind it are borrowed from tp.
func confidentMembers(tp *nn.Tape, x, centers *tensor.Tensor, assign []int, keepFrac float64) []int {
	n := x.Rows()
	all := tp.Ints(n)
	for i := range all {
		all[i] = i
	}
	if keepFrac <= 0 || keepFrac >= 1 || centers.Rows() < 2 {
		return all
	}
	margins := tp.Tensor(1, n).Data()
	assignmentMargins(margins, x, centers, assign)
	// Not a stable sort: which of several points of one margin make the cut
	// is pdqsort's choice. sort.Slice — which produced the pinned ledger, and
	// allocates — makes the same one from the same comparisons;
	// TestConfidentMembersKeepsSortSliceSet holds this line to it.
	slices.SortFunc(all, func(a, b int) int {
		switch {
		case margins[a] > margins[b]:
			return -1
		case margins[a] < margins[b]:
			return 1
		}
		return 0
	})
	keep := int(math.Ceil(keepFrac * float64(n)))
	if keep < 2 {
		keep = 2
	}
	if keep > n {
		keep = n
	}
	kept := all[:keep]
	slices.Sort(kept)
	return kept
}

// assignmentMargins writes, per point, the squared distance to the nearest
// centre other than its own minus the squared distance to its own. Four
// points meet four centres in one tensor.SqDistTile (a ragged edge repeats
// its last row); each distance is SqDist(point, centre), bit for bit.
func assignmentMargins(margins []float64, x, centers *tensor.Tensor, assign []int) {
	n, k := len(margins), centers.Rows()
	var (
		pts, cs [4][]float64
		tile    [16]float64
	)
	for i0 := 0; i0 < n; i0 += 4 {
		for r := range pts {
			pts[r] = x.Row(min(i0+r, n-1))
		}
		var own [4]float64
		runner := [4]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
		for c0 := 0; c0 < k; c0 += 4 {
			for j := range cs {
				cs[j] = centers.Row(min(c0+j, k-1))
			}
			tensor.SqDistTile(&tile, &pts, &cs)
			for r := range min(4, n-i0) {
				for j := range min(4, k-c0) {
					if dist := tile[r*4+j]; c0+j == assign[i0+r] {
						own[r] = dist
					} else if dist < runner[r] {
						runner[r] = dist
					}
				}
			}
		}
		for r := range min(4, n-i0) {
			margins[i0+r] = runner[r] - own[r]
		}
	}
}

// Divergence computes a client's local divergence rate: cluster the
// encodings of its samples (adaptive cluster count up to k) and return the
// mean distance to the assigned prototype (paper §IV-B). Used as the
// aggregation weight signal.
func Divergence(rng *rand.Rand, encodings *tensor.Tensor, k int) (float64, error) {
	return divergence(nil, nil, rng, encodings, k)
}

// divergence is Divergence with SelectKIn's distance tables borrowed from
// arena and its clusterings run in ws (nil: the heap).
func divergence(arena *tensor.Arena, ws *kmeans.Workspace, rng *rand.Rand, encodings *tensor.Tensor, k int) (float64, error) {
	if encodings.Rows() == 0 {
		return 0, fmt.Errorf("core: no encodings for divergence")
	}
	res, _, err := SelectKIn(arena, ws, rng, encodings, k)
	if err != nil {
		return 0, fmt.Errorf("core: divergence clustering: %w", err)
	}
	return kmeans.MeanDistanceToAssigned(encodings, res.Centers, res.Assign), nil
}
