package nn

import (
	"math"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

// trainStepGrads runs one forward/backward of a batch through an MLP big
// enough to cross tensor's parallel threshold and returns the flattened
// parameter gradients.
func trainStepGrads(t *testing.T, workers int) []float64 {
	t.Helper()
	tensor.SetWorkers(workers)
	t.Cleanup(func() { tensor.SetWorkers(0) })
	rng := rand.New(rand.NewSource(99))
	m := MLP(rng, "det", 192, 160, 96, 10)
	x := tensor.RandN(rng, 1, 96, 192)
	targets := make([]int, 96)
	for i := range targets {
		targets[i] = rng.Intn(10)
	}
	grads := lendGrads(t, m.Params()...)
	loss := CrossEntropy(ForwardTensor(m, x), targets)
	if err := Backward(loss); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), grads...)
}

// TestTrainStepDeterministicAcrossWorkerCounts asserts the end-to-end
// guarantee the tensor kernels promise: a whole Linear forward/backward pass
// produces bit-identical gradients whether the kernel pool has 1 worker or
// many.
func TestTrainStepDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := trainStepGrads(t, 1)
	for _, workers := range []int{2, 4} {
		got := trainStepGrads(t, workers)
		if len(got) != len(ref) {
			t.Fatalf("grad length %d vs %d", len(got), len(ref))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: grad[%d] = %x, want %x", workers, i, got[i], ref[i])
			}
		}
	}
}
