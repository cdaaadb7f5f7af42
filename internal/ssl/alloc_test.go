package ssl

import (
	"math/rand"
	"testing"
)

// simclrStepAllocCeiling bounds the objects a warmed SimCLR step allocates:
// the backward closures of its thirteen ops (eight fused layers, the
// NT-Xent chain's five) plus half an epoch's reshuffle, and nothing else —
// no view tensors, batch row table, step context, shape slices, parent
// slices, NT-Xent targets or masks. Measured: 13.5 (54.5 before the step
// borrowed all of those).
const simclrStepAllocCeiling = 18

// TestTrainStepAllocations pins the steady-state allocation count of a bare
// SimCLR training step at the experiments' batch size, as the difference of
// a long and a short Train on a warmed arena (what a call allocates once —
// batcher, tape, optimizer — cancels out).
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
	train(1)() // warm the trainable's arena
	perStep := (testing.AllocsPerRun(5, train(9)) - testing.AllocsPerRun(5, train(1))) / float64(8*stepsPerEpoch)
	if perStep > simclrStepAllocCeiling {
		t.Errorf("a warmed SimCLR step makes %.1f allocations, ceiling %d", perStep, simclrStepAllocCeiling)
	}
}
