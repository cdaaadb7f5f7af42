package tensor_test

import (
	"fmt"

	"calibre/internal/tensor"
)

// ExampleMatMul multiplies a 2×3 matrix by a 3×2 matrix. The kernel is
// cache-blocked and (for large products) parallel, but its results are
// bit-identical to the serial reference for any worker count.
func ExampleMatMul() {
	a := tensor.New(2, 3)
	copy(a.Data(), []float64{
		1, 2, 3,
		4, 5, 6,
	})
	b := tensor.New(3, 2)
	copy(b.Data(), []float64{
		7, 8,
		9, 10,
		11, 12,
	})
	c, err := tensor.MatMul(a, b)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(c.At(0, 0), c.At(0, 1))
	fmt.Println(c.At(1, 0), c.At(1, 1))
	// Output:
	// 58 64
	// 139 154
}
