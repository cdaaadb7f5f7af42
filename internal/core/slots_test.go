package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLocalUpdatesRunAtMostGOMAXPROCSAtOnce: however many clients of one
// process ask to train at once, no more than GOMAXPROCS local updates run,
// and every one of them gets to.
func TestLocalUpdatesRunAtMostGOMAXPROCSAtOnce(t *testing.T) {
	limit := int64(runtime.GOMAXPROCS(0))
	var running, most, done atomic.Int64
	var wg sync.WaitGroup
	for range 4 * limit {
		wg.Add(1)
		go func() {
			defer wg.Done()
			updates.acquire()
			n := running.Add(1)
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			updates.release()
			done.Add(1)
		}()
	}
	wg.Wait()
	if got := most.Load(); got > limit {
		t.Fatalf("%d local updates ran at once, GOMAXPROCS is %d", got, limit)
	}
	if got := done.Load(); got != 4*limit {
		t.Fatalf("%d of %d local updates ran", got, 4*limit)
	}
}
