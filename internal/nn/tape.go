package nn

import "calibre/internal/tensor"

// Tape tracks every tensor a computation graph allocates — op outputs,
// lazily-created gradients, and backward scratch — so they can all be
// returned to a tensor.Arena in one call when the step is over. It also
// lends the step its index scratch (Ints, IntRows) and whatever tensors the
// step builds outside the graph (Tensor: the augmented views, a loss hook's
// work matrices), on the same terms: valid until Reset.
//
// A tape enters a graph through InputOn: every op output derived (directly
// or transitively) from a taped input draws its buffers from the tape's
// arena instead of the Go heap. Reset returns them all; after Reset no node
// of the step's graph may be used again. Values that must outlive the step
// (the scalar loss, momentum-encoder keys, …) must be read or deep-copied
// before Reset — StepLoop.Run is the one call site that manages this
// lifecycle.
//
// A nil *Tape is valid everywhere and degrades to plain heap allocation, as
// does a Tape over a nil arena. A Tape is NOT safe for concurrent use; use
// one per training worker (the arena underneath is mutex-guarded, so workers
// may share an arena but never a tape).
type Tape struct {
	arena *tensor.Arena
	taken []*tensor.Tensor

	// nodes is a recycled Node slab: ops on a taped graph draw their Node
	// headers from here instead of the heap, and Reset reclaims the slots.
	// Like taped tensors, slab nodes must not be used after Reset.
	nodes []Node

	// Index scratch lent until Reset: op captures (targets, masks, group
	// tables) and a loss hook's pseudo-label bookkeeping.
	ints    scratch[int]
	intRows scratch[[]int]

	// Backward scratch, reused across steps by topoSort.
	visited map[*Node]bool
	order   []*Node
	stack   []sortFrame
}

// NewTape returns a tape drawing from arena (which may be nil for plain
// heap allocation).
func NewTape(arena *tensor.Arena) *Tape { return &Tape{arena: arena} }

// node returns a zeroed *Node drawn from the tape's slab, recycling slots
// freed by the last Reset. After the first step has grown the slab, a
// steady-state step allocates no Node headers at all. Nil-safe: a nil tape
// heap-allocates.
func (tp *Tape) node() *Node {
	if tp == nil {
		return &Node{}
	}
	if len(tp.nodes) < cap(tp.nodes) {
		tp.nodes = tp.nodes[:len(tp.nodes)+1]
	} else {
		tp.nodes = append(tp.nodes, Node{})
	}
	n := &tp.nodes[len(tp.nodes)-1]
	*n = Node{}
	return n
}

// scratch lends slices of one buffer until reset. A step that asks for more
// than the buffer holds gets the excess from the heap, and reset then grows
// the buffer to what the step took in all — so the steps after the largest
// one so far allocate nothing.
type scratch[T any] struct {
	buf  []T
	used int // lent since the last reset, including what did not fit
}

func (s *scratch[T]) take(n int) []T {
	lo := s.used
	s.used += n
	if s.used > len(s.buf) {
		return make([]T, n)
	}
	out := s.buf[lo:s.used:s.used]
	clear(out)
	return out
}

func (s *scratch[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.used = 0
}

// Ints lends a zeroed []int of length n until Reset. Nil-safe: a nil tape
// is plain make.
func (tp *Tape) Ints(n int) []int {
	if tp == nil {
		return make([]int, n)
	}
	return tp.ints.take(n)
}

// IntRows lends a [][]int of n nil rows until Reset. Nil-safe: a nil tape
// is plain make.
func (tp *Tape) IntRows(n int) [][]int {
	if tp == nil {
		return make([][]int, n)
	}
	return tp.intRows.take(n)
}

// Tensor lends a zeroed tensor of the given shape until Reset, for what a
// step builds outside the graph. Nil-safe: a nil tape is tensor.New.
func (tp *Tape) Tensor(shape ...int) *tensor.Tensor { return tp.alloc(shape...) }

// alloc borrows a zeroed tensor of the given shape, tracked for Reset.
func (tp *Tape) alloc(shape ...int) *tensor.Tensor {
	if tp == nil {
		return tensor.New(shape...)
	}
	return tp.track(tp.arena.GetTensor(shape...))
}

// allocLike borrows a zeroed tensor with t's shape, tracked for Reset.
func (tp *Tape) allocLike(t *tensor.Tensor) *tensor.Tensor {
	if tp == nil {
		return tensor.NewLike(t)
	}
	return tp.track(tp.arena.GetTensorLike(t))
}

// allocUninit is alloc without the zeroing, for a tensor whose every element
// the caller overwrites before reading any: the output of a tensor.MatMul*Into
// product, LinearAct's activation gradient. Anything written only in part or
// added into (an accumulator) needs alloc.
func (tp *Tape) allocUninit(shape ...int) *tensor.Tensor {
	if tp == nil {
		return tensor.New(shape...)
	}
	return tp.track(tp.arena.GetTensorUninit(shape...))
}

// allocLikeUninit is allocLike without the zeroing; see allocUninit.
func (tp *Tape) allocLikeUninit(t *tensor.Tensor) *tensor.Tensor {
	if tp == nil {
		return tensor.NewLike(t)
	}
	return tp.track(tp.arena.GetTensorLikeUninit(t))
}

// track records an arena borrow for Reset (a tape over a nil arena has
// nothing to return).
func (tp *Tape) track(t *tensor.Tensor) *tensor.Tensor {
	if tp.arena != nil {
		tp.taken = append(tp.taken, t)
	}
	return t
}

// Reset returns every tensor allocated through this tape to the arena, takes
// back the scratch it lent and empties the tape for the next step. Nil-safe.
func (tp *Tape) Reset() {
	if tp == nil {
		return
	}
	for i, t := range tp.taken {
		tp.arena.PutTensor(t)
		tp.taken[i] = nil
	}
	tp.taken = tp.taken[:0]
	// Zero the slab so recycled Nodes hold no references to dead tensors or
	// closures, then make every slot reusable by the next step.
	for i := range tp.nodes {
		tp.nodes[i] = Node{}
	}
	tp.nodes = tp.nodes[:0]
	tp.ints.reset()
	tp.intRows.reset()
}
