package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Arena is an explicit free-list allocator for float64 buffers, used to make
// training hot loops allocation-free. Borrow a buffer with Get (or a whole
// tensor with GetTensor), return it with Put/PutTensor; returned buffers are
// recycled by later Gets of the same length.
//
// Semantics are identical to make([]float64, n): Get always returns a zeroed
// buffer, so code paths are bit-identical whether or not an arena is in use.
// The Uninit forms skip the zeroing for a borrower that overwrites every
// element before reading any — a matmul output, which the kernel writes
// whole, every element from +0 — and are interchangeable with the zeroed
// forms for exactly those borrowers.
//
// Ownership rules:
//
//   - A borrowed buffer is owned by the borrower until Put; the arena never
//     touches it in between.
//   - Put panics on misuse — returning a slice the arena did not hand out,
//     returning it twice, or returning it at the wrong length. Misuse is a
//     programming error, not a recoverable condition.
//   - After Put the buffer must not be read or written; it may be re-handed
//     to any later Get.
//
// All methods are safe for concurrent use (a single mutex guards the free
// lists), and all methods are nil-receiver-safe: a nil *Arena degrades to
// plain make/garbage-collection, so arena use is strictly opt-in.
type Arena struct {
	mu       sync.Mutex
	free     map[int][][]float64 // exact length -> free buffers
	borrowed map[*float64]int    // &buf[0] -> length, for misuse detection
	hdrs     []*Tensor           // recycled tensor headers (shape/data rebound on reuse)
	stats    ArenaStats
}

// ArenaStats is a snapshot of arena traffic, for tests and benchmarks.
type ArenaStats struct {
	Gets        int64 // calls to Get (and GetTensor)
	Hits        int64 // Gets served from the free list instead of make
	Puts        int64 // calls to Put (and PutTensor)
	Outstanding int64 // borrowed buffers not yet returned
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		free:     make(map[int][][]float64),
		borrowed: make(map[*float64]int),
	}
}

// Get borrows a zeroed buffer of length n, reusing a previously Put buffer
// of the same length when one is free. On a nil arena it is plain make.
func (a *Arena) Get(n int) []float64 {
	buf, recycled := a.take(n)
	if recycled {
		clear(buf) // outside a.mu: borrowers sharing an arena do not queue behind a memset
	}
	return buf
}

// GetUninit is Get without the zeroing: a recycled buffer comes back with
// whatever its last borrower left in it. Only for a borrower that writes
// every element before reading any (a fresh make is still zeroed, so such a
// borrower cannot tell the two apart).
func (a *Arena) GetUninit(n int) []float64 {
	buf, recycled := a.take(n)
	if recycled && poisonUninit {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	return buf
}

// poisonUninit makes GetUninit fill every recycled buffer with NaN, so that
// a borrower which reads before it writes changes a run's result instead of
// silently depending on stale contents. Only tests set it.
var poisonUninit bool

// take removes a buffer of length n from the free list, or makes one, and
// records the borrow; recycled reports which. On a nil arena it is plain
// make.
func (a *Arena) take(n int) (buf []float64, recycled bool) {
	if a == nil {
		return make([]float64, n), false
	}
	if n == 0 {
		return nil, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Gets++
	if list := a.free[n]; len(list) > 0 {
		buf, recycled = list[len(list)-1], true
		a.free[n] = list[:len(list)-1]
		a.stats.Hits++
	} else {
		buf = make([]float64, n)
	}
	a.borrowed[&buf[0]] = n
	a.stats.Outstanding++
	return buf, recycled
}

// Put returns a buffer previously obtained from Get. It panics if buf was
// not borrowed from this arena, was already returned, or was re-sliced to a
// different length. On a nil arena (or a nil/empty buffer) it is a no-op.
func (a *Arena) Put(buf []float64) {
	if a == nil || len(buf) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := &buf[0]
	n, ok := a.borrowed[key]
	if !ok {
		panic("tensor: Arena.Put of a buffer not borrowed from this arena (foreign slice or double Put)")
	}
	if n != len(buf) {
		panic(fmt.Sprintf("tensor: Arena.Put of re-sliced buffer: borrowed length %d, returned length %d", n, len(buf)))
	}
	delete(a.borrowed, key)
	a.free[n] = append(a.free[n], buf)
	a.stats.Puts++
	a.stats.Outstanding--
}

// GetTensor borrows a zeroed tensor of the given shape from the arena. On a
// nil arena it is equivalent to New.
func (a *Arena) GetTensor(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	return a.wrap(shape, a.Get(numElements(shape)))
}

// GetTensorUninit is GetTensor over GetUninit: same borrow, unspecified
// contents.
func (a *Arena) GetTensorUninit(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	return a.wrap(shape, a.GetUninit(numElements(shape)))
}

// numElements is the element count of shape; it panics on a negative
// dimension.
func numElements(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return n
}

// GetTensorLike borrows a zeroed tensor with t's shape.
func (a *Arena) GetTensorLike(t *Tensor) *Tensor {
	if a == nil {
		return NewLike(t)
	}
	return a.wrap(t.shape, a.Get(len(t.data)))
}

// GetTensorLikeUninit is GetTensorLike over GetUninit: same borrow,
// unspecified contents.
func (a *Arena) GetTensorLikeUninit(t *Tensor) *Tensor {
	if a == nil {
		return NewLike(t)
	}
	return a.wrap(t.shape, a.GetUninit(len(t.data)))
}

// wrap binds data and a copy of shape to a recycled tensor header when one
// is free. Every header owns its shape's backing (Tensor.dims), so on a
// free-list hit a borrow allocates nothing at all: header, shape and data
// are all recycled, and shape is not retained.
func (a *Arena) wrap(shape []int, data []float64) *Tensor {
	a.mu.Lock()
	if n := len(a.hdrs); n > 0 {
		t := a.hdrs[n-1]
		a.hdrs[n-1] = nil
		a.hdrs = a.hdrs[:n-1]
		a.mu.Unlock()
		return t.bind(shape, data)
	}
	a.mu.Unlock()
	return newHeader(shape, data)
}

// PutTensor returns a tensor borrowed with GetTensor/GetTensorLike. The
// tensor (and any view of its data) must not be used afterwards — its
// header is recycled for a later Get and rebound to different storage.
// Same misuse panics as Put; no-op on a nil arena.
func (a *Arena) PutTensor(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	if len(t.data) == 0 {
		return // zero-size tensors carry no borrow record; leave the header alone
	}
	a.Put(t.data) // panics on misuse before the header is recycled
	a.mu.Lock()
	t.data = nil // any use-after-release now fails loudly on the nil data
	a.hdrs = append(a.hdrs, t)
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
