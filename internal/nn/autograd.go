// Package nn provides a small reverse-mode automatic-differentiation engine,
// neural-network layers, loss functions, and optimizers built on
// internal/tensor. It is the training substrate standing in for the deep
// learning framework used by the Calibre paper (see ARCHITECTURE.md
// "Synthetic substitutions").
//
// The engine is define-by-run: every operation on *Node values records its
// backward pass — a package-level function of the node, which reads what it
// needs from the node's parents, value and saved fields, so recording it
// costs no heap object; calling Backward on a scalar loss node topologically
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
	"errors"
	"fmt"
	"math"
	"sync/atomic"

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
	inline [3]*Node
	// back distributes the node's gradient g to its parents. It is a
	// package-level function, never a func literal: what it needs beyond
	// the parents and Value the op stores in the fields below, so a node
	// and its backward pass are one slab slot and no heap object.
	back         func(n *Node, g *tensor.Tensor)
	tape         *Tape
	requiresGrad bool
	// cleared marks a parameter leaf whose gradient holds +0 everywhere and
	// has had nothing added to it yet in this backward pass (see backward);
	// any Grad call takes the mark away.
	cleared bool
	// mark is the number of the last topological sort that reached the
	// node (sortEpochs).
	mark uint64

	// What the op's backward pass reads besides the parents and Value:
	// tensors it kept from the forward pass, an index table, a constant and
	// a small selector (an activation kind, a loss's form). Each op's doc
	// or backward says which it uses.
	saved   [4]*tensor.Tensor
	ints    []int
	intRows [][]int
	scalar  float64
	kind    int
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
	n.cleared = false
	if n.grad == nil {
		n.grad = n.tape.allocLike(n.Value)
	}
	return n.grad
}

// addProduct adds the product that into computes from a and b — a matrix
// product with n's value's shape — to n's gradient. When nothing has
// contributed to that gradient yet in this backward pass, the product is
// computed straight into it: an intermediate node's gradient is not yet
// allocated, and a parameter leaf's is still all +0 (cleared). Otherwise
// it goes through scratch and is added. Both forms give the same bits: the
// kernels start every output element at +0 and only add terms to it, so no
// product element is −0 and +0 + 1·t is t (NaN payloads included).
func addProduct(tp *Tape, n *Node, into func(out, a, b *tensor.Tensor), a, b *tensor.Tensor) {
	switch {
	case n.grad == nil:
		n.grad = tp.allocLikeUninit(n.Value)
		into(n.grad, a, b)
	case n.cleared:
		n.cleared = false
		into(n.grad, a, b)
	default:
		tmp := tp.allocLikeUninit(n.Value)
		into(tmp, a, b)
		mustAddScaled(n.grad, tmp, 1)
	}
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

// newOp records an op node over parents with backward pass back. An op that
// needs more than its parents and value in back sets the node's saved
// fields on the returned node.
func newOp(value *tensor.Tensor, back func(n *Node, g *tensor.Tensor), parents ...*Node) *Node {
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
// reachable from loss, which must have gradient storage (Tape.LendGrads,
// NewSGD): whatever they hold, the pass adds to. Call Params' ZeroGrad (or
// SGD.ZeroGrad) between optimization steps. StepLoop.Run, which clears the
// gradients itself, lets the pass write a matrix product straight into a
// gradient nothing has added to yet instead (see backward).
func Backward(loss *Node) error { return backward(loss, nil) }

// backward is Backward for a pass in which the parameter gradients lying in
// cleared — a vector the caller has just set to +0 everywhere — start empty:
// the first matrix product a parameter leaf there receives is written into
// its gradient, not added through scratch (addProduct). That saves each
// weight gradient's scratch and its AddScaled sweep, and changes no bit.
// A leaf is marked only for this pass and only until an op touches its
// gradient in any other way (Grad).
func backward(loss *Node, cleared []float64) error {
	if loss.Value.Len() != 1 {
		return fmt.Errorf("nn: Backward requires a scalar loss, got shape %v", loss.Value.Shape())
	}
	if !loss.requiresGrad {
		return nil // loss does not depend on any parameter
	}
	order := topoSort(loss)
	for _, n := range order {
		// A parameter leaf: its gradient is the Param's.
		if n.back == nil && n.grad != nil {
			if n.grad.Len() != n.Value.Len() {
				return errors.New("nn: Backward into a parameter with no gradient storage: lend the model's gradients (Tape.LendGrads) or build its optimizer (NewSGD) first")
			}
			n.cleared = within(n.grad.Data(), cleared)
		}
	}
	loss.Grad().Data()[0] = 1
	// Reverse topological order: each node's grad is complete before its
	// backward pass distributes it to parents.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil {
			n.back(n, n.Grad())
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

// sortEpochs numbers the topological sorts of the process. A sort marks
// each node it reaches with its own number, so nothing is cleared between
// sorts and a mark left by another sort never reads as this one's — a
// parameter leaf is shared by the graphs of every tape that trains it.
var sortEpochs atomic.Uint64

func topoSort(root *Node) []*Node {
	// On a taped graph the order/stack slices are tape scratch, reused
	// across steps; untaped graphs allocate fresh.
	tp := root.tape
	var order []*Node
	var stack []sortFrame
	if tp != nil {
		order, stack = tp.order[:0], tp.stack[:0]
	}
	epoch := sortEpochs.Add(1)
	stack = append(stack, sortFrame{n: root})
	root.mark = epoch
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.n.parents) {
			p := top.n.parents[top.next]
			top.next++
			if p.mark != epoch && p.requiresGrad {
				p.mark = epoch
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
	v := tapeOf(a, b).allocLikeUninit(a.Value)
	if err := tensor.AddInto(v, a.Value, b.Value); err != nil {
		panic(err) // shape bugs are programming errors inside the engine
	}
	return newOp(v, addBackward, a, b)
}

func addBackward(n *Node, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		mustAddScaled(a.Grad(), g, 1)
	}
	if b.requiresGrad {
		mustAddScaled(b.Grad(), g, 1)
	}
}

// Sub returns a - b.
func Sub(a, b *Node) *Node {
	v := tapeOf(a, b).allocLikeUninit(a.Value)
	if err := tensor.SubInto(v, a.Value, b.Value); err != nil {
		panic(err)
	}
	return newOp(v, subBackward, a, b)
}

func subBackward(n *Node, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		mustAddScaled(a.Grad(), g, 1)
	}
	if b.requiresGrad {
		mustAddScaled(b.Grad(), g, -1)
	}
}

// Scale returns a*c for scalar constant c.
func Scale(a *Node, c float64) *Node {
	v := a.tape.allocLikeUninit(a.Value)
	if err := tensor.ScaleInto(v, a.Value, c); err != nil {
		panic(err)
	}
	n := newOp(v, scaleBackward, a)
	n.scalar = c
	return n
}

func scaleBackward(n *Node, g *tensor.Tensor) {
	if a := n.parents[0]; a.requiresGrad {
		mustAddScaled(a.Grad(), g, n.scalar)
	}
}

// MatMul returns a·b for 2-D nodes.
func MatMul(a, b *Node) *Node {
	if a.Value.Dims() != 2 || b.Value.Dims() != 2 || a.Value.Cols() != b.Value.Rows() {
		panic(fmt.Sprintf("nn: MatMul shape %v · %v", a.Value.Shape(), b.Value.Shape()))
	}
	v := tapeOf(a, b).allocUninit(a.Value.Rows(), b.Value.Cols())
	tensor.MatMulInto(v, a.Value, b.Value)
	return newOp(v, matMulBackward, a, b)
}

func matMulBackward(n *Node, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		addProduct(n.tape, a, tensor.MatMulTransBInto, g, b.Value) // g·bᵀ
	}
	if b.requiresGrad {
		addProduct(n.tape, b, tensor.MatMulTransAInto, a.Value, g) // aᵀ·g
	}
}

// MatMulTransB returns a·bᵀ where a is (m×k) and b is (n×k), producing (m×n).
// This is the similarity-matrix primitive used by the contrastive losses.
func MatMulTransB(a, b *Node) *Node {
	m := a.Value.Rows()
	n := b.Value.Rows()
	if a.Value.Cols() != b.Value.Cols() {
		panic(fmt.Sprintf("nn: MatMulTransB inner dims %d vs %d", a.Value.Cols(), b.Value.Cols()))
	}
	v := tapeOf(a, b).allocUninit(m, n)
	tensor.MatMulTransBInto(v, a.Value, b.Value)
	return newOp(v, matMulTransBBackward, a, b)
}

func matMulTransBBackward(n *Node, g *tensor.Tensor) {
	// For MatMulTransB(z, z) the first branch writes z's gradient and the
	// second adds to it.
	a, b := n.parents[0], n.parents[1]
	if a.requiresGrad {
		addProduct(n.tape, a, tensor.MatMulInto, g, b.Value) // g·b
	}
	if b.requiresGrad {
		addProduct(n.tape, b, tensor.MatMulTransAInto, g, a.Value) // gᵀ·a
	}
}

// AddBias adds bias vector b (a 1×n or n-element node) to every row of x
// (m×n).
func AddBias(x, bias *Node) *Node {
	bv := bias.Value.Data()
	v := tapeOf(x, bias).allocLikeUninit(x.Value)
	if err := tensor.AddRowVecInto(v, x.Value, bv); err != nil {
		panic(err)
	}
	return newOp(v, addBiasBackward, x, bias)
}

func addBiasBackward(n *Node, g *tensor.Tensor) {
	x, bias := n.parents[0], n.parents[1]
	if x.requiresGrad {
		mustAddScaled(x.Grad(), g, 1)
	}
	if bias.requiresGrad {
		gb := bias.Grad().Data()
		m, cols := g.Rows(), g.Cols()
		gd := g.Data()
		for i := 0; i < m; i++ {
			row := gd[i*cols : (i+1)*cols]
			for j := 0; j < cols; j++ {
				gb[j] += row[j]
			}
		}
	}
}

// --- Activations ------------------------------------------------------------

// ReLU applies max(0, x) elementwise. A NaN stays a NaN, as in LinearAct:
// a poisoned activation must reach the finite-value checks, not turn into 0.
func ReLU(x *Node) *Node {
	v := x.tape.allocLikeUninit(x.Value)
	mustApplyInto(v, x.Value, func(f float64) float64 {
		if f <= 0 {
			return 0
		}
		return f
	})
	return newOp(v, reluBackward, x)
}

func reluBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	if !x.requiresGrad {
		return
	}
	gx, xd, gd := x.Grad().Data(), x.Value.Data(), g.Data()
	for i := range gx {
		if xd[i] > 0 {
			gx[i] += gd[i]
		}
	}
}

// Tanh applies tanh elementwise.
func Tanh(x *Node) *Node {
	v := x.tape.allocLikeUninit(x.Value)
	mustApplyInto(v, x.Value, math.Tanh)
	return newOp(v, tanhBackward, x)
}

func tanhBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	if !x.requiresGrad {
		return
	}
	gx, vd, gd := x.Grad().Data(), n.Value.Data(), g.Data()
	for i := range gx {
		gx[i] += gd[i] * (1 - vd[i]*vd[i])
	}
}

// --- Row-wise geometry ------------------------------------------------------

const normEps = 1e-12

// L2NormalizeRows scales each row of x to unit Euclidean norm (rows with
// norm < 1e-12 pass through unchanged).
func L2NormalizeRows(x *Node) *Node {
	if x.Value.Dims() != 2 {
		panic(fmt.Sprintf("nn: L2NormalizeRows of a %v tensor", x.Value.Shape()))
	}
	v := x.tape.allocLikeUninit(x.Value)
	norms := x.tape.allocUninit(x.Value.Rows())
	nd := norms.Data()
	for i := range nd {
		nd[i] = tensor.L2NormalizeRowInto(v.Row(i), x.Value.Row(i), normEps)
	}
	n := newOp(v, l2NormalizeRowsBackward, x)
	n.saved[0] = norms
	return n
}

// l2NormalizeRowsBackward reads the row norms from saved[0].
func l2NormalizeRowsBackward(n *Node, g *tensor.Tensor) {
	if x := n.parents[0]; x.requiresGrad {
		normalizeBackward(x.Grad().Data(), g.Data(), n.Value.Data(), n.saved[0].Data(), false)
	}
}

// normalizeBackward adds to dst, the gradient of rows x, what the gradient
// g of their L2-normalized rows y hands on, given norms[i] = ‖x_i‖: per
// element t = (g − (g·y)·y)/‖x‖, or g itself for a row whose norm was below
// normEps (it passed through unchanged). With plusZero each element adds
// +0 + t, as a ConcatRows gradient in between, which starts at +0, would.
func normalizeBackward(dst, g, y, norms []float64, plusZero bool) {
	if len(norms) == 0 {
		return
	}
	n := len(dst) / len(norms)
	for i, norm := range norms {
		grow, yrow, drow := g[i*n:][:n], y[i*n:][:n], dst[i*n:][:n]
		switch {
		case norm < normEps:
			// Where plusZero is set, g is a matrix product's element
			// (PairNTXent's), never −0, so +0 + g is g.
			for j := range drow {
				drow[j] += grow[j]
			}
		case plusZero:
			gy := tensor.Dot(grow, yrow)
			inv := 1 / norm
			for j := range drow {
				drow[j] += 0 + (grow[j]-gy*yrow[j])*inv
			}
		default:
			gy := tensor.Dot(grow, yrow)
			inv := 1 / norm
			for j := range drow {
				drow[j] += (grow[j] - gy*yrow[j]) * inv
			}
		}
	}
}

// --- Structural ops ---------------------------------------------------------

// ConcatRows stacks a (ma×n) on top of b (mb×n), producing ((ma+mb)×n).
func ConcatRows(a, b *Node) *Node {
	if a.Value.Cols() != b.Value.Cols() {
		panic(fmt.Sprintf("nn: ConcatRows col mismatch %d vs %d", a.Value.Cols(), b.Value.Cols()))
	}
	ma, mb, n := a.Value.Rows(), b.Value.Rows(), a.Value.Cols()
	v := tapeOf(a, b).allocUninit(ma+mb, n)
	copy(v.Data()[:ma*n], a.Value.Data())
	copy(v.Data()[ma*n:], b.Value.Data())
	return newOp(v, concatRowsBackward, a, b)
}

func concatRowsBackward(n *Node, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	gd := g.Data()
	if a.requiresGrad {
		ga := a.Grad().Data()
		for i := range ga {
			ga[i] += gd[i]
		}
	}
	if b.requiresGrad {
		gb := b.Grad().Data()
		off := a.Value.Len()
		for i := range gb {
			gb[i] += gd[off+i]
		}
	}
}

// ConcatCols places a (m×na) to the left of b (m×nb), producing (m×(na+nb)).
func ConcatCols(a, b *Node) *Node {
	if a.Value.Rows() != b.Value.Rows() {
		panic(fmt.Sprintf("nn: ConcatCols row mismatch %d vs %d", a.Value.Rows(), b.Value.Rows()))
	}
	m, na, nb := a.Value.Rows(), a.Value.Cols(), b.Value.Cols()
	v := tapeOf(a, b).allocUninit(m, na+nb)
	for i := 0; i < m; i++ {
		copy(v.Row(i)[:na], a.Value.Row(i))
		copy(v.Row(i)[na:], b.Value.Row(i))
	}
	return newOp(v, concatColsBackward, a, b)
}

func concatColsBackward(n *Node, g *tensor.Tensor) {
	a, b := n.parents[0], n.parents[1]
	m, na, nb := a.Value.Rows(), a.Value.Cols(), b.Value.Cols()
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
}

// GatherRows selects the given rows of x into a new (len(idx)×n) node.
// Duplicate indices are allowed; gradients accumulate.
func GatherRows(x *Node, idx []int) *Node {
	v := x.tape.allocUninit(len(idx), x.Value.Cols())
	for i, r := range idx {
		copy(v.Row(i), x.Value.Row(r))
	}
	n := newOp(v, gatherRowsBackward, x)
	n.ints = x.tape.Ints(len(idx))
	copy(n.ints, idx)
	return n
}

// gatherRowsBackward reads the gathered rows from ints.
func gatherRowsBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	if !x.requiresGrad {
		return
	}
	gx, cols := x.Grad(), x.Value.Cols()
	for i, r := range n.ints {
		grow := g.Row(i)
		gxrow := gx.Row(r)
		for j := 0; j < cols; j++ {
			gxrow[j] += grow[j]
		}
	}
}

// GroupMean averages the rows of x within each group, producing a
// (len(groups)×n) node. Empty groups yield a zero row. This is the
// prototype-construction primitive: prototypes are differentiable means of
// member encodings. Each group's members must ascend; a mean is its rows
// summed in that order from +0 (tensor.AddRowsAt), then scaled by the
// inverse of their count.
func GroupMean(x *Node, groups [][]int) *Node {
	v := x.tape.allocUninit(len(groups), x.Value.Cols())
	for k, grp := range groups {
		row := v.Row(k)
		tensor.AddRowsAt(row, x.Value.Data(), grp, true)
		if len(grp) > 0 {
			tensor.ScaleSlice(row, 1/float64(len(grp)))
		}
	}
	n := newOp(v, groupMeanBackward, x)
	n.intRows = x.tape.IntRows(len(groups))
	for k, grp := range groups {
		n.intRows[k] = x.tape.Ints(len(grp))
		copy(n.intRows[k], grp)
	}
	return n
}

// groupMeanBackward reads the groups from intRows.
func groupMeanBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	if !x.requiresGrad {
		return
	}
	gx := x.Grad()
	for k, grp := range n.intRows {
		if len(grp) == 0 {
			continue
		}
		inv := 1 / float64(len(grp))
		for _, r := range grp {
			tensor.AddScaledSlice(gx.Row(r), g.Row(k), inv, false)
		}
	}
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
	n := newOp(v, rowDotConstBackward, x)
	n.saved[0] = c
	return n
}

// rowDotConstBackward reads the constant rows from saved[0].
func rowDotConstBackward(n *Node, g *tensor.Tensor) {
	x, c := n.parents[0], n.saved[0]
	if !x.requiresGrad {
		return
	}
	gx := x.Grad()
	m, cols := x.Value.Rows(), x.Value.Cols()
	for i := 0; i < m; i++ {
		gi := g.At(i, 0)
		crow := c.Row(i)
		gxrow := gx.Row(i)
		for j := 0; j < cols; j++ {
			gxrow[j] += gi * crow[j]
		}
	}
}

// Mean reduces all elements of x to their arithmetic mean (1×1 node).
func Mean(x *Node) *Node {
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, x.Value.Mean())
	return newOp(v, meanBackward, x)
}

func meanBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	cnt := float64(x.Value.Len())
	if !x.requiresGrad || cnt == 0 {
		return
	}
	gv := g.At(0, 0) / cnt
	gx := x.Grad().Data()
	for i := range gx {
		gx[i] += gv
	}
}

// SumSquares returns Σ x² as a scalar node.
func SumSquares(x *Node) *Node {
	var s float64
	for _, f := range x.Value.Data() {
		s += f * f
	}
	v := x.tape.alloc(1, 1)
	v.Set(0, 0, s)
	return newOp(v, sumSquaresBackward, x)
}

func sumSquaresBackward(n *Node, g *tensor.Tensor) {
	x := n.parents[0]
	if !x.requiresGrad {
		return
	}
	gv := g.At(0, 0)
	gx, xd := x.Grad().Data(), x.Value.Data()
	for i := range gx {
		gx[i] += 2 * gv * xd[i]
	}
}

// within reports whether d is a window of v, as bind carves a vector into
// windows: its elements are v's and its capacity ends where v's does. It
// never mistakes storage outside v for v's (it may miss a window of a v
// whose capacity was cut short, which only costs the direct write).
func within(d, v []float64) bool {
	off := cap(v) - cap(d)
	return len(d) > 0 && off >= 0 && off+len(d) <= len(v) && &v[off] == &d[0]
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
