package nn

import (
	"sync"

	"calibre/internal/param"
	"calibre/internal/tensor"
)

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
// A nil *Tape is valid everywhere but LendGrads and degrades to plain heap
// allocation, as does a Tape over a nil arena. A Tape is NOT safe for
// concurrent use: one serves one training worker at a time. The trainers
// borrow theirs from a process-wide pool for the length of one local update
// (BorrowTape, or a TapePool of their own; Release), so the process keeps
// one tape, and the arena under it, per trainer running at once — not one
// per client model it ever trained. A tape built with NewTape belongs to
// its caller. The tape also
// lends the update its model's gradients (LendGrads), which Release gives
// back with it.
type Tape struct {
	arena *tensor.Arena
	taken []*tensor.Tensor

	// grads is the gradient vector LendGrads lent, bound to gradsOf's
	// gradients until returnGrads.
	grads   param.Vector
	gradsOf []*Param

	// nodes is a recycled Node slab: ops on a taped graph draw their Node
	// headers — backward pass and what it reads included — from here
	// instead of the heap, and Reset reclaims the slots. Like taped
	// tensors, slab nodes must not be used after Reset.
	nodes []Node

	// Index scratch lent until Reset: what ops keep for their backward
	// passes (targets, gathered rows, group tables) and a loss hook's
	// pseudo-label bookkeeping.
	ints    scratch[int]
	intRows scratch[[]int]

	// Backward scratch, reused across steps by topoSort.
	order []*Node
	stack []sortFrame

	// pool is the pool Release gives the tape back to: the one that lent
	// it, or the local updates' pool for a tape built with NewTape.
	pool *TapePool
}

// NewTape returns a tape drawing from arena (which may be nil for plain
// heap allocation).
func NewTape(arena *tensor.Arena) *Tape { return &Tape{arena: arena} }

// Arena returns the arena the tape draws from, which also lends a step's
// callers scratch for the length of a call (Get … Put). Nil-safe: a nil tape
// has a nil arena, which is the heap.
func (tp *Tape) Arena() *tensor.Arena {
	if tp == nil {
		return nil
	}
	return tp.arena
}

// BorrowTape lends a tape from the process's pool for local updates (see
// TapePool) for one local update. Hand it back with Release when the update
// is over.
func BorrowTape() *Tape { return tapes.Borrow() }

// Release gives back the gradients the tape lent (LendGrads), then resets
// the tape and gives it back to the pool that lent it, for another call to
// borrow; the tape must not be used after. It keeps the buffers of every
// shape it has served.
func (tp *Tape) Release() {
	tp.returnGrads()
	pool := tp.pool
	if pool == nil {
		pool = &tapes
	}
	pool.giveBack(tp)
}

// LendGrads binds m's gradients, in Params() order, to one vector borrowed
// from the process's pool of parameter-sized vectors (param.Borrow), and
// returns it: the local update's gradient storage, which Release unbinds and
// gives back. So a model keeps no gradients between local updates, and the
// process keeps one gradient vector per trainer running at once. The vector
// comes as its last borrower left it; StepLoop.Run clears it before every
// Backward. Lend before building the update's optimizer (NewSGD binds to the
// gradients as they are then); a module assembled by hand is laid out first
// (Values). A tape lends one module's gradients at a time: lending again
// gives the last ones back first.
func (tp *Tape) LendGrads(m Module) param.Vector {
	tp.returnGrads()
	n := len(Values(m))
	tp.grads, tp.gradsOf = param.Borrow(n), m.Params()
	bind(tp.gradsOf, tp.grads, true)
	return tp.grads
}

// returnGrads unbinds the gradients LendGrads bound and gives their vector
// back, if the tape lent one.
func (tp *Tape) returnGrads() {
	if tp.grads == nil {
		return
	}
	bind(tp.gradsOf, nil, true)
	param.GiveBack(tp.grads)
	tp.grads, tp.gradsOf = nil, nil
}

// tapes lends local updates their step tapes, as param's pool lends their
// gradients and momentum vectors: a tape lives for one local update, so the
// process keeps one per trainer running at once.
var tapes TapePool

// TapePool lends step tapes, each over an arena of its own: the one released
// last, whose buffers are the warmest, or a new one. An arena keeps a buffer
// of every length it has served, so a tape serves the steps of one kind
// best: a kind of step that shares no shapes with the local updates (a
// linear probe on frozen features) keeps a pool of its own, or the local
// updates would borrow tapes whose arenas hold none of their buffers, and
// allocate a step's worth whenever they did. Which tape a trainer gets never
// shows in its results: an arena's Get is make, and what it lends
// uninitialised is only for borrowers that overwrite it whole. The zero
// TapePool is empty and ready to use; it is safe for concurrent use.
type TapePool struct {
	mu   sync.Mutex
	free []*Tape
}

// Borrow lends a tape from the pool for one call; Release gives it back.
func (p *TapePool) Borrow() *Tape {
	p.mu.Lock()
	defer p.mu.Unlock()
	last := len(p.free) - 1
	if last < 0 {
		tp := NewTape(tensor.NewArena())
		tp.pool = p
		return tp
	}
	tp := p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	return tp
}

func (p *TapePool) giveBack(tp *Tape) {
	tp.Reset()
	p.mu.Lock()
	p.free = append(p.free, tp)
	p.mu.Unlock()
}

// node returns a zeroed *Node drawn from the tape's slab, recycling slots
// freed by the last Reset. After the first step has grown the slab, a
// steady-state step allocates no Node headers at all, and since every
// backward pass is a package-level function of its node, no closures
// either. Nil-safe: a nil tape heap-allocates.
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
// product, LinearAct's activation gradient, an elementwise op's or a row
// copy's output, the softmax losses' buffers. Anything written only in part
// or added into (an accumulator) needs alloc.
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
	// index scratch, then make every slot reusable by the next step.
	for i := range tp.nodes {
		tp.nodes[i] = Node{}
	}
	tp.nodes = tp.nodes[:0]
	tp.ints.reset()
	tp.intRows.reset()
}
