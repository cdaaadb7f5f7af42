package param

import (
	"slices"
	"sync"
)

// vectors is the process's one lender of parameter-sized vectors. What a
// client needs only while it trains — an optimizer's velocity, a local
// update's gradients, the global a networked client received — is borrowed
// for that long and given back, so the process keeps one such vector per
// trainer running at once, not one per client. Borrowers of every kind share
// the pool: it lends by capacity, so in a process of one model size they
// serve one another.
var vectors pool

// Borrow lends a vector of n elements: of the free vectors that hold n, the
// one of least capacity — the one given back last, among equals — or a new
// one. Its contents are what its last borrower left (zeros only if it is
// new): a borrower that reads before it writes clears it first. Give it back
// with GiveBack once nothing reads or writes it any more.
func Borrow(n int) Vector { return vectors.borrow(n) }

// GiveBack returns a vector Borrow lent, for another borrower.
func GiveBack(v Vector) { vectors.giveBack(v) }

// Idle reports how many vectors the pool holds free to lend: what the
// process keeps for the trainers that are not running.
func Idle() int { return vectors.idle() }

// IsIdle reports whether v's array is free in the pool: given back and not
// lent since. It is how a test sees that a vector came back.
func IsIdle(v Vector) bool { return vectors.isIdle(v) }

type pool struct {
	mu   sync.Mutex
	free []Vector // in the order given back
}

func (p *pool) borrow(n int) Vector {
	p.mu.Lock()
	best := -1
	for i := len(p.free) - 1; i >= 0; i-- {
		if c := cap(p.free[i]); c >= n && (best < 0 || c < cap(p.free[best])) {
			best = i
		}
	}
	var v Vector
	if best >= 0 {
		v = p.free[best]
		p.free = slices.Delete(p.free, best, best+1)
	}
	p.mu.Unlock()
	if v == nil {
		return make(Vector, n)
	}
	v = v[:n]
	if onRelend != nil {
		onRelend(v)
	}
	return v
}

// onRelend, when set, sees every vector Borrow lends again before its
// borrower does. Only tests set it: filled with NaN there, a borrower that
// reads what it has not written changes a run's result instead of silently
// depending on what the last borrower left.
var onRelend func(Vector)

func (p *pool) giveBack(v Vector) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

func (p *pool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

func (p *pool) isIdle(v Vector) bool {
	if cap(v) == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.ContainsFunc(p.free, func(f Vector) bool { return cap(f) > 0 && &f[:1][0] == &v[:1][0] })
}
