package nn

import (
	"math"

	"calibre/internal/tensor"
)

// VarianceHinge returns (1/d)·Σ_j max(0, gamma - std_j) where std_j is the
// (Bessel-corrected) standard deviation of column j of x. VICReg's variance
// term: it keeps every embedding dimension "alive" by penalizing collapsed
// columns. eps stabilizes the square root.
func VarianceHinge(x *Node, gamma, eps float64) *Node {
	n, d := x.Value.Rows(), x.Value.Cols()
	if n < 2 {
		// Variance undefined; return a constant zero that still links x so
		// callers can Add it unconditionally.
		return newOp(x.tape.alloc(1, 1), constantBackward, x)
	}
	meansT, stdsT := x.tape.allocUninit(d), x.tape.allocUninit(d)
	means, stds := meansT.Data(), stdsT.Data()
	x.Value.ColMeansInto(means)
	var loss float64
	inv := 1 / float64(n-1)
	for j := 0; j < d; j++ {
		var ss float64
		for i := 0; i < n; i++ {
			dv := x.Value.At(i, j) - means[j]
			ss += dv * dv
		}
		stds[j] = math.Sqrt(ss*inv + eps)
		if stds[j] < gamma {
			loss += gamma - stds[j]
		}
	}
	loss /= float64(d)
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	node := newOp(v, varianceHingeBackward, x)
	node.saved[0], node.saved[1], node.scalar = meansT, stdsT, gamma
	return node
}

// varianceHingeBackward reads the column means from saved[0], their
// standard deviations from saved[1] and gamma from scalar.
func varianceHingeBackward(node *Node, g *tensor.Tensor) {
	x, means, stds, gamma := node.parents[0], node.saved[0].Data(), node.saved[1].Data(), node.scalar
	if !x.requiresGrad {
		return
	}
	n, d := x.Value.Rows(), x.Value.Cols()
	gv := g.At(0, 0)
	gx := x.Grad()
	for j := 0; j < d; j++ {
		if stds[j] >= gamma {
			continue
		}
		scale := -gv / (float64(d) * stds[j] * float64(n-1))
		for i := 0; i < n; i++ {
			gx.Row(i)[j] += scale * (x.Value.At(i, j) - means[j])
		}
	}
}

// constantBackward is the backward pass of a node whose value does not
// depend on its parents.
func constantBackward(*Node, *tensor.Tensor) {}

// CovariancePenalty returns (1/d)·Σ_{i≠j} C_ij² where C is the covariance
// matrix of the rows of x. VICReg's covariance term: it decorrelates
// embedding dimensions so information spreads across the representation.
func CovariancePenalty(x *Node) *Node {
	n, d := x.Value.Rows(), x.Value.Cols()
	if n < 2 {
		return newOp(x.tape.alloc(1, 1), constantBackward, x)
	}
	means := x.tape.allocUninit(d).Data()
	x.Value.ColMeansInto(means)
	centered := x.tape.alloc(n, d)
	for i := 0; i < n; i++ {
		row := x.Value.Row(i)
		crow := centered.Row(i)
		for j := 0; j < d; j++ {
			crow[j] = row[j] - means[j]
		}
	}
	inv := 1 / float64(n-1)
	cov := x.tape.alloc(d, d)
	tensor.MatMulTransAInto(cov, centered, centered) // centeredᵀ·centered
	var loss float64
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			cov.Set(i, j, cov.At(i, j)*inv)
			if i != j {
				c := cov.At(i, j)
				loss += c * c
			}
		}
	}
	loss /= float64(d)
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, loss)
	node := newOp(v, covariancePenaltyBackward, x)
	node.saved[0], node.saved[1] = centered, cov
	return node
}

// covariancePenaltyBackward reads the centered rows from saved[0] and their
// covariance matrix from saved[1].
func covariancePenaltyBackward(node *Node, g *tensor.Tensor) {
	x, centered, cov := node.parents[0], node.saved[0], node.saved[1]
	if !x.requiresGrad {
		return
	}
	n, d := x.Value.Rows(), x.Value.Cols()
	inv := 1 / float64(n-1)
	gv := g.At(0, 0)
	// dL/dC_ij = (2/d)·C_ij off-diagonal; L depends on X via
	// C = (1/(n-1))·AᵀA with A the centered matrix, so
	// dL/dA = (2/(n-1))·A·G with symmetric off-diagonal G, and the
	// centering projector removes each column's mean gradient — which
	// is already zero here because G is applied to centered columns.
	gc := x.tape.alloc(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i != j {
				gc.Set(i, j, 2*cov.At(i, j)/float64(d))
			}
		}
	}
	// dL/dA = (2/(n-1)) A·G  (factor 2 from G + Gᵀ with G symmetric).
	dA := x.tape.alloc(n, d)
	tensor.MatMulInto(dA, centered, gc)
	scale := gv * 2 * inv
	gx := x.Grad()
	// Column means of dA are zero (A's columns are centered and G has
	// zero diagonal contribution per column pair symmetric), but apply
	// the centering projector explicitly for exactness.
	colMeans := x.tape.allocUninit(d).Data()
	dA.ColMeansInto(colMeans)
	for i := 0; i < n; i++ {
		grow := gx.Row(i)
		arow := dA.Row(i)
		for j := 0; j < d; j++ {
			grow[j] += scale * (arow[j] - colMeans[j])
		}
	}
}
