package tensor

import "testing"

// PoisonUninit turns on the GetUninit poison hook (every recycled buffer
// GetUninit hands out is filled with NaN) for the rest of test t. It lives
// in a _test file so that the external tests of this package, which can
// import the layers above it, reach the hook without the package exporting
// it.
func PoisonUninit(t testing.TB) {
	poisonUninit = true
	t.Cleanup(func() { poisonUninit = false })
}
