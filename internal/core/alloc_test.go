package core

import (
	"math/rand"
	"testing"

	"calibre/internal/ssl"
)

// calibreStepAllocCeiling bounds the objects a warmed, regularized SimCLR
// step allocates: the backward closures of the base loss's thirteen ops and
// of the eighteen L_n / L_p / scaling ops on top, plus half an epoch's
// reshuffle — and nothing from the pseudo-label pipeline (normalized pair
// means, up to six k-means runs, silhouettes, the confidence filter, the
// group tables). Measured: 31.5 (249.3 before, on this data; ≈ 440 on the
// benchmark's).
const calibreStepAllocCeiling = 40

// TestCalibreStepAllocations pins the steady-state allocation count of a
// training step with Regularizer.Apply installed (the state of every round
// past warm-up), at the experiments' batch size, as the difference of a long
// and a short ssl.Train on a warmed client.
func TestCalibreStepAllocations(t *testing.T) {
	reg, err := NewRegularizer(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	factory, err := ssl.Lookup("simclr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ssl.NewTrainable(rand.New(rand.NewSource(81)), testArch(), factory)
	if err != nil {
		t.Fatal(err)
	}
	rows := blobRows(82, 4, 16)
	cfg := ssl.DefaultTrainConfig()
	cfg.BatchSize = 32
	train := func(epochs int) func() {
		c := cfg
		c.Epochs = epochs
		return func() {
			if _, err := ssl.Train(rand.New(rand.NewSource(83)), tr, rows, c, reg.Apply); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepsPerEpoch := (len(rows) + cfg.BatchSize - 1) / cfg.BatchSize
	train(9)() // warm the pooled tape and the client's k-means workspace
	perStep := (testing.AllocsPerRun(5, train(9)) - testing.AllocsPerRun(5, train(1))) / float64(8*stepsPerEpoch)
	if perStep > calibreStepAllocCeiling {
		t.Errorf("a warmed Calibre step makes %.1f allocations, ceiling %d", perStep, calibreStepAllocCeiling)
	}
}
