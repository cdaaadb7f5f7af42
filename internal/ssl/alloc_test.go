package ssl

import (
	"math/rand"
	"testing"
)

// simclrStepAllocCeiling bounds the objects a warmed SimCLR step allocates:
// none — no view tensors, batch row table, step context, shape slices,
// parent slices, NT-Xent targets or masks, no backward closures (every
// op's backward pass is a function of its slab node) and no permutation
// per epoch (the batcher reshuffles in place). Measured: 0 (13.5 with a
// closure per op and a fresh permutation per epoch; 54.5 before the step
// borrowed all the rest).
const simclrStepAllocCeiling = 0

// TestTrainStepAllocations pins the steady-state allocation count of a bare
// SimCLR training step at the experiments' batch size, as the difference of
// a long and a short Train on a warmed tape (what a call allocates once —
// batcher, optimizer — cancels out).
func TestTrainStepAllocations(t *testing.T) {
	b := testBackbone(t, 71)
	tr := &Trainable{Backbone: b, Method: buildMethod(t, "simclr", b)}
	rows := testRows(rand.New(rand.NewSource(72)), 64, 16)
	cfg := DefaultTrainConfig()
	cfg.BatchSize = 32
	train := func(epochs int) func() {
		c := cfg
		c.Epochs = epochs
		return func() {
			if _, err := Train(rand.New(rand.NewSource(73)), tr, rows, c, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepsPerEpoch := (len(rows) + cfg.BatchSize - 1) / cfg.BatchSize
	train(1)() // warm the pooled tape
	perStep := (testing.AllocsPerRun(5, train(9)) - testing.AllocsPerRun(5, train(1))) / float64(8*stepsPerEpoch)
	if perStep > simclrStepAllocCeiling {
		t.Errorf("a warmed SimCLR step makes %.1f allocations, ceiling %d", perStep, simclrStepAllocCeiling)
	}
}
