// Package nn provides a small reverse-mode automatic-differentiation engine,
// neural-network layers, loss functions, and optimizers built on
// internal/tensor. It is the training substrate standing in for the deep
// learning framework used by the Calibre paper (see ARCHITECTURE.md
// "Synthetic substitutions").
//
// The engine is define-by-run: every operation on *Node values records a
// backward closure; calling Backward on a scalar loss node topologically
// sorts the reachable graph and accumulates gradients into the participating
// Params. Nodes derived only from constants (Input) are skipped.
// StepLoop sequences a whole training step around Backward — loss, gradient
// clearing, clipping, the optimizer, the allocation tape's reset — and is
// what every local trainer in the repository runs.
//
// The matrix-product ops (MatMul, MatMulTransB and the Linear layer's
// forward/backward passes, plus the VICReg covariance ops) run on
// internal/tensor's shared cache-blocked parallel kernels. The pool is
// process-wide and deterministic, so forward and backward results are
// bit-identical regardless of tensor.SetWorkers, and training many clients
// concurrently (internal/fl) cannot oversubscribe the CPU.
package nn

import (
	"fmt"
	"math"

	"calibre/internal/tensor"
)

// Node is a value in the computation graph.
type Node struct {
	// Value is the forward result. It must not be mutated after creation.
	Value *tensor.Tensor

	grad    *tensor.Tensor
	parents []*Node
	// inline backs parents: no op has more than three, so a node and its
	// parent list are one object (one slab slot, on a tape).
	inline       [3]*Node
	back         func(grad *tensor.Tensor)
	tape         *Tape
	requiresGrad bool
}

// Input wraps a constant tensor as a graph leaf through which no gradient
// flows.
func Input(t *tensor.Tensor) *Node {
	return &Node{Value: t}
}

// InputOn is Input with an allocation tape attached: every op derived from
// the returned leaf draws its output, gradient and scratch buffers from the
// tape's arena, and Tape.Reset reclaims them all when the step is done. A
// nil tape makes this identical to Input.
func InputOn(tp *Tape, t *tensor.Tensor) *Node {
	n := tp.node()
	n.Value = t
	n.tape = tp
	return n
}

// Grad returns the node's accumulated gradient tensor, allocating it on
// first use. For param nodes this aliases the Param's gradient.
func (n *Node) Grad() *tensor.Tensor {
	if n.grad == nil {
		n.grad = n.tape.allocLike(n.Value)
	}
	return n.grad
}

func anyRequiresGrad(nodes ...*Node) bool {
	for _, n := range nodes {
		if n.requiresGrad {
			return true
		}
	}
	return false
}

// tapeOf returns the first allocation tape found among nodes. Graphs are
// built per step from a single taped input set, so mixing tapes is not a
// supported configuration.
func tapeOf(nodes ...*Node) *Tape {
	for _, n := range nodes {
		if n != nil && n.tape != nil {
			return n.tape
		}
	}
	return nil
}

func newOp(value *tensor.Tensor, back func(g *tensor.Tensor), parents ...*Node) *Node {
	tp := tapeOf(parents...)
	n := tp.node()
	n.Value = value
	n.parents = append(n.inline[:0], parents...)
	n.tape = tp
	n.requiresGrad = anyRequiresGrad(parents...)
	if n.requiresGrad {
		n.back = back
	}
	return n
}

// Backward runs reverse-mode differentiation from loss, which must hold a
// single element (a scalar loss). Gradients accumulate into every Param
// reachable from loss; call Params' ZeroGrad (or SGD.ZeroGrad) between
// optimization steps.
func Backward(loss *Node) error {
	if loss.Value.Len() != 1 {
		return fmt.Errorf("nn: Backward requires a scalar loss, got shape %v", loss.Value.Shape())
	}
	if !loss.requiresGrad {
		return nil // loss does not depend on any parameter
	}
	order := topoSort(loss)
	loss.Grad().Data()[0] = 1
	// Reverse topological order: each node's grad is complete before its
	// backward closure distributes it to parents.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil {
			n.back(n.Grad())
		}
	}
	return nil
}

// sortFrame is an explicit DFS stack frame for topoSort (iterative to avoid
// goroutine-stack overflow on deep graphs).
type sortFrame struct {
	n    *Node
	next int
}

func topoSort(root *Node) []*Node {
	// On a taped graph the visited map and the order/stack slices are tape
	// scratch, reused across steps; untaped graphs allocate fresh.
	tp := root.tape
	var visited map[*Node]bool
	var order []*Node
	var stack []sortFrame
	if tp != nil {
		if tp.visited == nil {
			tp.visited = make(map[*Node]bool)
		} else {
			clear(tp.visited)
		}
		visited = tp.visited
		order, stack = tp.order[:0], tp.stack[:0]
	} else {
		visited = make(map[*Node]bool)
	}
	stack = append(stack, sortFrame{n: root})
	visited[root] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.n.parents) {
			p := top.n.parents[top.next]
			top.next++
			if !visited[p] && p.requiresGrad {
				visited[p] = true
				stack = append(stack, sortFrame{n: p})
			}
			continue
		}
		order = append(order, top.n)
		stack = stack[:len(stack)-1]
	}
	if tp != nil {
		// Keep the grown capacity for the next Backward. order is handed to
		// the caller, but Backward finishes with it before the next step.
		tp.order, tp.stack = order, stack[:0]
	}
	return order
}

// --- Arithmetic ops ---------------------------------------------------------

// Add returns a + b (same shapes).
func Add(a, b *Node) *Node {
	v := tapeOf(a, b).allocLike(a.Value)
	if err := tensor.AddInto(v, a.Value, b.Value); err != nil {
		panic(err) // shape bugs are programming errors inside the engine
	}
	return newOp(v, func(g *tensor.Tensor) {
		if a.requiresGrad {
			mustAddScaled(a.Grad(), g, 1)
		}
		if b.requiresGrad {
			mustAddScaled(b.Grad(), g, 1)
		}
	}, a, b)
}

// Sub returns a - b.
func Sub(a, b *Node) *Node {
	v := tapeOf(a, b).allocLike(a.Value)
	if err := tensor.SubInto(v, a.Value, b.Value); err != nil {
		panic(err)
	}
	return newOp(v, func(g *tensor.Tensor) {
		if a.requiresGrad {
			mustAddScaled(a.Grad(), g, 1)
		}
		if b.requiresGrad {
			mustAddScaled(b.Grad(), g, -1)
		}
	}, a, b)
}

// Scale returns a*c for scalar constant c.
func Scale(a *Node, c float64) *Node {
	v := a.tape.allocLike(a.Value)
	if err := tensor.ScaleInto(v, a.Value, c); err != nil {
		panic(err)
	}
	return newOp(v, func(g *tensor.Tensor) {
		if a.requiresGrad {
			mustAddScaled(a.Grad(), g, c)
		}
	}, a)
}

// MatMul returns a·b for 2-D nodes.
func MatMul(a, b *Node) *Node {
	if a.Value.Dims() != 2 || b.Value.Dims() != 2 || a.Value.Cols() != b.Value.Rows() {
		panic(fmt.Sprintf("nn: MatMul shape %v · %v", a.Value.Shape(), b.Value.Shape()))
	}
	tp := tapeOf(a, b)
	v := tp.allocUninit(a.Value.Rows(), b.Value.Cols())
	tensor.MatMulInto(v, a.Value, b.Value)
	return newOp(v, func(g *tensor.Tensor) {
		if a.requiresGrad {
			tmp := tp.allocLikeUninit(a.Value)
			tensor.MatMulTransBInto(tmp, g, b.Value) // g·bᵀ
			mustAddScaled(a.Grad(), tmp, 1)
		}
		if b.requiresGrad {
			tmp := tp.allocLikeUninit(b.Value)
			tensor.MatMulTransAInto(tmp, a.Value, g) // aᵀ·g
			mustAddScaled(b.Grad(), tmp, 1)
		}
	}, a, b)
}

// MatMulTransB returns a·bᵀ where a is (m×k) and b is (n×k), producing (m×n).
// This is the similarity-matrix primitive used by the contrastive losses.
func MatMulTransB(a, b *Node) *Node {
	m := a.Value.Rows()
	n := b.Value.Rows()
	if a.Value.Cols() != b.Value.Cols() {
		panic(fmt.Sprintf("nn: MatMulTransB inner dims %d vs %d", a.Value.Cols(), b.Value.Cols()))
	}
	tp := tapeOf(a, b)
	v := tp.allocUninit(m, n)
	tensor.MatMulTransBInto(v, a.Value, b.Value)
	return newOp(v, func(g *tensor.Tensor) {
		if a.requiresGrad {
			tmp := tp.allocLikeUninit(a.Value)
			tensor.MatMulInto(tmp, g, b.Value) // g·b
			mustAddScaled(a.Grad(), tmp, 1)
		}
		if b.requiresGrad {
			tmp := tp.allocLikeUninit(b.Value)
			tensor.MatMulTransAInto(tmp, g, a.Value) // gᵀ·a
			mustAddScaled(b.Grad(), tmp, 1)
		}
	}, a, b)
}

// AddBias adds bias vector b (a 1×n or n-element node) to every row of x
// (m×n).
func AddBias(x, bias *Node) *Node {
	bv := bias.Value.Data()
	v := tapeOf(x, bias).allocLike(x.Value)
	if err := tensor.AddRowVecInto(v, x.Value, bv); err != nil {
		panic(err)
	}
	return newOp(v, func(g *tensor.Tensor) {
		if x.requiresGrad {
			mustAddScaled(x.Grad(), g, 1)
		}
		if bias.requiresGrad {
			gb := bias.Grad().Data()
			m, n := g.Rows(), g.Cols()
			gd := g.Data()
			for i := 0; i < m; i++ {
				row := gd[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					gb[j] += row[j]
				}
			}
		}
	}, x, bias)
}

// --- Activations ------------------------------------------------------------

// ReLU applies max(0, x) elementwise. A NaN stays a NaN, as in LinearAct:
// a poisoned activation must reach the finite-value checks, not turn into 0.
func ReLU(x *Node) *Node {
	v := x.tape.allocLike(x.Value)
	mustApplyInto(v, x.Value, func(f float64) float64 {
		if f <= 0 {
			return 0
		}
		return f
	})
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gx, xd, gd := x.Grad().Data(), x.Value.Data(), g.Data()
		for i := range gx {
			if xd[i] > 0 {
				gx[i] += gd[i]
			}
		}
	}, x)
}

// Tanh applies tanh elementwise.
func Tanh(x *Node) *Node {
	v := x.tape.allocLike(x.Value)
	mustApplyInto(v, x.Value, math.Tanh)
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gx, vd, gd := x.Grad().Data(), v.Data(), g.Data()
		for i := range gx {
			gx[i] += gd[i] * (1 - vd[i]*vd[i])
		}
	}, x)
}

// --- Row-wise geometry ------------------------------------------------------

const normEps = 1e-12

// L2NormalizeRows scales each row of x to unit Euclidean norm (rows with
// norm < 1e-12 pass through unchanged).
func L2NormalizeRows(x *Node) *Node {
	v := x.tape.allocLike(x.Value)
	if err := tensor.L2NormalizeRowsInto(v, x.Value, normEps); err != nil {
		panic(err)
	}
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		m, n := x.Value.Rows(), x.Value.Cols()
		gx := x.Grad()
		for i := 0; i < m; i++ {
			xrow := x.Value.Row(i)
			yrow := v.Row(i)
			grow := g.Row(i)
			gxrow := gx.Row(i)
			norm := tensor.Norm2(xrow)
			if norm < normEps {
				for j := 0; j < n; j++ {
					gxrow[j] += grow[j]
				}
				continue
			}
			gy := tensor.Dot(grow, yrow)
			inv := 1 / norm
			for j := 0; j < n; j++ {
				gxrow[j] += (grow[j] - gy*yrow[j]) * inv
			}
		}
	}, x)
}

// --- Structural ops ---------------------------------------------------------

// ConcatRows stacks a (ma×n) on top of b (mb×n), producing ((ma+mb)×n).
func ConcatRows(a, b *Node) *Node {
	if a.Value.Cols() != b.Value.Cols() {
		panic(fmt.Sprintf("nn: ConcatRows col mismatch %d vs %d", a.Value.Cols(), b.Value.Cols()))
	}
	ma, mb, n := a.Value.Rows(), b.Value.Rows(), a.Value.Cols()
	v := tapeOf(a, b).alloc(ma+mb, n)
	copy(v.Data()[:ma*n], a.Value.Data())
	copy(v.Data()[ma*n:], b.Value.Data())
	return newOp(v, func(g *tensor.Tensor) {
		gd := g.Data()
		if a.requiresGrad {
			ga := a.Grad().Data()
			for i := range ga {
				ga[i] += gd[i]
			}
		}
		if b.requiresGrad {
			gb := b.Grad().Data()
			off := ma * n
			for i := range gb {
				gb[i] += gd[off+i]
			}
		}
	}, a, b)
}

// ConcatCols places a (m×na) to the left of b (m×nb), producing (m×(na+nb)).
func ConcatCols(a, b *Node) *Node {
	if a.Value.Rows() != b.Value.Rows() {
		panic(fmt.Sprintf("nn: ConcatCols row mismatch %d vs %d", a.Value.Rows(), b.Value.Rows()))
	}
	m, na, nb := a.Value.Rows(), a.Value.Cols(), b.Value.Cols()
	v := tapeOf(a, b).alloc(m, na+nb)
	for i := 0; i < m; i++ {
		copy(v.Row(i)[:na], a.Value.Row(i))
		copy(v.Row(i)[na:], b.Value.Row(i))
	}
	return newOp(v, func(g *tensor.Tensor) {
		for i := 0; i < m; i++ {
			grow := g.Row(i)
			if a.requiresGrad {
				garow := a.Grad().Row(i)
				for j := 0; j < na; j++ {
					garow[j] += grow[j]
				}
			}
			if b.requiresGrad {
				gbrow := b.Grad().Row(i)
				for j := 0; j < nb; j++ {
					gbrow[j] += grow[na+j]
				}
			}
		}
	}, a, b)
}

// GatherRows selects the given rows of x into a new (len(idx)×n) node.
// Duplicate indices are allowed; gradients accumulate.
func GatherRows(x *Node, idx []int) *Node {
	n := x.Value.Cols()
	v := x.tape.alloc(len(idx), n)
	for i, r := range idx {
		copy(v.Row(i), x.Value.Row(r))
	}
	rows := x.tape.Ints(len(idx))
	copy(rows, idx)
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gx := x.Grad()
		for i, r := range rows {
			grow := g.Row(i)
			gxrow := gx.Row(r)
			for j := 0; j < n; j++ {
				gxrow[j] += grow[j]
			}
		}
	}, x)
}

// GroupMean averages the rows of x within each group, producing a
// (len(groups)×n) node. Empty groups yield a zero row. This is the
// prototype-construction primitive: prototypes are differentiable means of
// member encodings.
func GroupMean(x *Node, groups [][]int) *Node {
	n := x.Value.Cols()
	v := x.tape.alloc(len(groups), n)
	for k, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		row := v.Row(k)
		for _, r := range grp {
			xr := x.Value.Row(r)
			for j := 0; j < n; j++ {
				row[j] += xr[j]
			}
		}
		inv := 1 / float64(len(grp))
		for j := 0; j < n; j++ {
			row[j] *= inv
		}
	}
	captured := x.tape.IntRows(len(groups))
	for k, grp := range groups {
		captured[k] = x.tape.Ints(len(grp))
		copy(captured[k], grp)
	}
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gx := x.Grad()
		for k, grp := range captured {
			if len(grp) == 0 {
				continue
			}
			inv := 1 / float64(len(grp))
			grow := g.Row(k)
			for _, r := range grp {
				gxrow := gx.Row(r)
				for j := 0; j < n; j++ {
					gxrow[j] += grow[j] * inv
				}
			}
		}
	}, x)
}

// RowDotConst returns the per-row dot product of x with constant rows c,
// as an (m×1) node. c must have the same shape as x.Value.
func RowDotConst(x *Node, c *tensor.Tensor) *Node {
	if !tensor.SameShape(x.Value, c) {
		panic(fmt.Sprintf("nn: RowDotConst shape %v vs %v", x.Value.Shape(), c.Shape()))
	}
	m := x.Value.Rows()
	v := x.tape.alloc(m, 1)
	for i := 0; i < m; i++ {
		v.Set(i, 0, tensor.Dot(x.Value.Row(i), c.Row(i)))
	}
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gx := x.Grad()
		n := x.Value.Cols()
		for i := 0; i < m; i++ {
			gi := g.At(i, 0)
			crow := c.Row(i)
			gxrow := gx.Row(i)
			for j := 0; j < n; j++ {
				gxrow[j] += gi * crow[j]
			}
		}
	}, x)
}

// Mean reduces all elements of x to their arithmetic mean (1×1 node).
func Mean(x *Node) *Node {
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, x.Value.Mean())
	cnt := float64(x.Value.Len())
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad || cnt == 0 {
			return
		}
		gv := g.At(0, 0) / cnt
		gx := x.Grad().Data()
		for i := range gx {
			gx[i] += gv
		}
	}, x)
}

// SumSquares returns Σ x² as a scalar node.
func SumSquares(x *Node) *Node {
	var s float64
	for _, f := range x.Value.Data() {
		s += f * f
	}
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, s)
	return newOp(v, func(g *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		gv := g.At(0, 0)
		gx, xd := x.Grad().Data(), x.Value.Data()
		for i := range gx {
			gx[i] += 2 * gv * xd[i]
		}
	}, x)
}

func mustAddScaled(dst, src *tensor.Tensor, s float64) {
	if err := tensor.AddScaled(dst, src, s); err != nil {
		panic(err)
	}
}

func mustApplyInto(dst, a *tensor.Tensor, f func(float64) float64) {
	if err := tensor.ApplyInto(dst, a, f); err != nil {
		panic(err)
	}
}
