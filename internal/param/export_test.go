package param

import (
	"math"
	"sync/atomic"
	"testing"
)

// PoisonIdle makes Borrow fill every vector it lends again — one that was
// idle in the pool — with NaN, for the rest of test t, and returns how many
// it has filled so far. It lives in a _test file so that the external tests
// of this package, which can import the layers above it, reach the hook
// without the package exporting it.
func PoisonIdle(t testing.TB) (filled func() int64) {
	var n atomic.Int64
	onRelend = func(v Vector) {
		n.Add(1)
		for i := range v {
			v[i] = math.NaN()
		}
	}
	t.Cleanup(func() { onRelend = nil })
	return n.Load
}
