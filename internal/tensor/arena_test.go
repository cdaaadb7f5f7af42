package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestArenaGetZeroedAndReused pins the two properties the hot path relies
// on: a Get after a Put of the same length is served from the free list,
// and the recycled buffer comes back fully zeroed (make-equivalent, the
// bit-identity precondition).
func TestArenaGetZeroedAndReused(t *testing.T) {
	a := NewArena()
	buf := a.Get(8)
	for i := range buf {
		buf[i] = float64(i) + 0.5 // dirty it
	}
	a.Put(buf)
	got := a.Get(8)
	if &got[0] != &buf[0] {
		t.Fatal("Get after Put of same length did not reuse the buffer")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled buffer element %d = %v, want 0", i, v)
		}
	}
	st := a.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 || st.Outstanding != 1 {
		t.Fatalf("stats = %+v, want Gets 2 Hits 1 Puts 1 Outstanding 1", st)
	}
	// Different length misses the free list.
	other := a.Get(4)
	if len(other) != 4 {
		t.Fatalf("Get(4) length = %d", len(other))
	}
	if got := a.Stats(); got.Hits != 1 {
		t.Fatalf("Get of unseen length counted as hit: %+v", got)
	}
}

func TestArenaPutMisusePanics(t *testing.T) {
	a := NewArena()

	buf := a.Get(6)
	a.Put(buf)
	mustPanic(t, "double Put", func() { a.Put(buf) })

	mustPanic(t, "foreign-slice Put", func() { a.Put(make([]float64, 6)) })

	b := NewArena()
	foreign := b.Get(6)
	mustPanic(t, "Put of another arena's buffer", func() { a.Put(foreign) })

	sliced := a.Get(6)
	mustPanic(t, "re-sliced Put", func() { a.Put(sliced[:3]) })
	a.Put(sliced) // full-length return still works after the failed attempt
}

// TestArenaNilIsPlainMake pins the opt-in contract: every method on a nil
// arena degrades to heap allocation and no-ops, so callers never branch.
func TestArenaNilIsPlainMake(t *testing.T) {
	var a *Arena
	buf := a.Get(5)
	if len(buf) != 5 {
		t.Fatalf("nil arena Get(5) length = %d", len(buf))
	}
	a.Put(buf) // no-op, must not panic
	tt := a.GetTensor(2, 3)
	if tt.Rows() != 2 || tt.Cols() != 3 {
		t.Fatalf("nil arena GetTensor shape = %v", tt.Shape())
	}
	like := a.GetTensorLike(tt)
	if like.Rows() != 2 || like.Cols() != 3 {
		t.Fatalf("nil arena GetTensorLike shape = %v", like.Shape())
	}
	a.PutTensor(tt)
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil arena stats = %+v", st)
	}
}

func TestArenaTensorRoundTrip(t *testing.T) {
	a := NewArena()
	x := a.GetTensor(3, 4)
	if x.Rows() != 3 || x.Cols() != 4 {
		t.Fatalf("GetTensor shape = %v", x.Shape())
	}
	x.Data()[0] = 42
	a.PutTensor(x)
	y := a.GetTensorLike(New(3, 4))
	if y.Data()[0] != 0 {
		t.Fatal("recycled tensor not zeroed")
	}
	if a.Stats().Outstanding != 1 {
		t.Fatalf("outstanding = %d, want 1", a.Stats().Outstanding)
	}
	a.PutTensor(y)
	a.PutTensor(nil) // nil tensor is a no-op
}

// TestArenaTensorBorrowsAllocateNothing: a header owns its shape's backing,
// so once an arena holds a free header and a free buffer of the size, a
// borrow of any two-dimensional shape — by dimensions or like another
// tensor — allocates nothing, and the shape it is rebound to is its own:
// recycling the tensor it was borrowed "like" does not reach it.
func TestArenaTensorBorrowsAllocateNothing(t *testing.T) {
	a := NewArena()
	like := New(2, 6)
	a.PutTensor(a.GetTensor(3, 4)) // one free header, one free 12-element buffer
	allocs := testing.AllocsPerRun(20, func() {
		a.PutTensor(a.GetTensor(4, 3))
		a.PutTensor(a.GetTensorUninit(6, 2))
		a.PutTensor(a.GetTensorLike(like))
		a.PutTensor(a.GetTensorLikeUninit(like))
	})
	if allocs != 0 {
		t.Fatalf("four warmed tensor borrows make %v allocations, want 0", allocs)
	}

	src := a.GetTensor(2, 6)
	dup := a.GetTensorLike(src)
	a.PutTensor(src)
	other := a.GetTensor(12, 1) // src's header, rebound
	if dup.Rows() != 2 || dup.Cols() != 6 || other.Rows() != 12 || NewLike(other).Cols() != 1 {
		t.Fatalf("shapes after recycling: dup %v, other %v", dup.Shape(), other.Shape())
	}
	a.PutTensor(dup)
	a.PutTensor(other)
	if three := a.GetTensor(2, 3, 2); three.Dims() != 3 || three.Len() != 12 {
		t.Fatalf("a three-dimensional borrow on a recycled header has shape %v", three.Shape())
	}
}

// TestArenaConcurrent hammers one shared arena from several goroutines;
// under -race this pins the mutex discipline workers rely on when they
// share an arena (but never a tape).
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(16)
				buf := a.Get(n)
				for j := range buf {
					buf[j] = float64(j)
				}
				a.Put(buf)
			}
		}(int64(g))
	}
	wg.Wait()
	st := a.Stats()
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after all Puts", st.Outstanding)
	}
	if st.Gets != 8*200 || st.Puts != 8*200 {
		t.Fatalf("stats = %+v, want 1600 gets/puts", st)
	}
}

// TestArenaGetUninit pins the uninitialised borrow: a fresh buffer is zero
// (it is a make), a recycled one keeps its last borrower's contents — or is
// all NaN under the poison hook — and it is the same borrow as Get for the
// counters, the tensor forms and the misuse checks.
func TestArenaGetUninit(t *testing.T) {
	a := NewArena()
	buf := a.GetUninit(5)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("fresh GetUninit buffer has %v at %d", v, i)
		}
		buf[i] = float64(i + 1)
	}
	a.Put(buf)
	again := a.GetUninit(5)
	if &again[0] != &buf[0] || again[4] != 5 {
		t.Fatalf("recycled GetUninit buffer = %v, want the buffer just returned, contents kept", again)
	}
	a.Put(again)
	zeroed := a.Get(5)
	if zeroed[4] != 0 {
		t.Fatalf("Get after GetUninit not zeroed: %v", zeroed)
	}
	a.Put(zeroed)

	PoisonUninit(t)
	poisoned := a.GetTensorLikeUninit(New(5))
	for i, v := range poisoned.Data() {
		if !math.IsNaN(v) {
			t.Fatalf("poisoned GetUninit buffer has %v at %d", v, i)
		}
	}
	a.PutTensor(poisoned)
	shaped := a.GetTensorUninit(1, 5)
	if shaped.Rows() != 1 || shaped.Cols() != 5 || !math.IsNaN(shaped.At(0, 0)) {
		t.Fatalf("GetTensorUninit(1, 5) = %v", shaped)
	}
	a.PutTensor(shaped)

	if st := a.Stats(); st.Gets != 5 || st.Hits != 4 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v, want 5 gets, 4 hits, none outstanding", st)
	}
	var nilArena *Arena
	if got := nilArena.GetUninit(3); len(got) != 3 || nilArena.GetTensorUninit(2, 2).Len() != 4 || nilArena.GetTensorLikeUninit(New(3)).Len() != 3 {
		t.Fatal("nil arena Uninit forms are not plain make")
	}
	if got := a.GetUninit(0); got != nil {
		t.Fatalf("GetUninit(0) = %v, want nil", got)
	}
}

// TestArenaConcurrentGetIsZeroed shares one arena between goroutines that
// dirty and return buffers of one length while others borrow them: Get
// zeroes a recycled buffer after it has left the free list and a.mu, and
// every borrower must still see zeros (and, under -race, no conflicting
// access).
func TestArenaConcurrentGetIsZeroed(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				buf := a.Get(64)
				for j, v := range buf {
					if v != 0 {
						t.Errorf("Get returned %v at %d", v, j)
						return
					}
					buf[j] = 1
				}
				a.Put(buf)
			}
		}()
	}
	wg.Wait()
}
