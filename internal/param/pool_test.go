package param

import "testing"

// TestPoolLendsBestFitWarmestFirst: a borrow gets the free vector of least
// capacity that holds it — of equals, the one given back last — resliced to
// the length asked for and as its last borrower left it; a borrow nothing
// free holds gets a new, zeroed vector; Idle counts what is free.
func TestPoolLendsBestFitWarmestFirst(t *testing.T) {
	var p pool
	small, large, twin := make(Vector, 4), make(Vector, 16), make(Vector, 16)
	large[0] = 7
	for _, v := range []Vector{large, small, twin} {
		p.giveBack(v)
	}
	if n := p.idle(); n != 3 {
		t.Fatalf("idle = %d vectors, want 3", n)
	}
	if v := p.borrow(3); &v[0] != &small[0] || len(v) != 3 {
		t.Fatal("a borrow of 3 must get the 4-element vector, resliced")
	}
	if v := p.borrow(10); &v[0] != &twin[0] {
		t.Fatal("of two equal fits the one given back last must be lent first")
	}
	if v := p.borrow(16); &v[0] != &large[0] || v[0] != 7 {
		t.Fatal("a borrowed vector must come as its last borrower left it")
	}
	if v := p.borrow(1); len(v) != 1 || cap(v) != 1 || v[0] != 0 {
		t.Fatal("a borrow with nothing free must get a new zeroed vector of its own size")
	}
	if n := p.idle(); n != 0 {
		t.Fatalf("the pool still holds %d vectors", n)
	}
}

// TestPoolIsIdle: a vector is idle from its give-back to its next borrow,
// whatever window of its array the caller names, and a vector the pool never
// held is not.
func TestPoolIsIdle(t *testing.T) {
	var p pool
	v, other := make(Vector, 8), make(Vector, 8)
	if p.isIdle(v) {
		t.Fatal("a vector never given back is idle")
	}
	p.giveBack(v)
	if !p.isIdle(v) || !p.isIdle(v[:0]) || p.isIdle(other) {
		t.Fatal("after its give-back v must be idle, under any length, and other must not")
	}
	p.borrow(8)
	if p.isIdle(v) || p.idle() != 0 {
		t.Fatal("a vector lent again is still idle")
	}
}
