package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"calibre/internal/ssl"
)

// calibreStepAllocCeiling bounds the objects a warmed, regularized SimCLR
// step allocates: none — not the base loss's ops or the L_n / L_p / scaling
// ops on top (each node's backward pass is a function of its slab node, not
// a closure), not the epoch's reshuffle (in place) and nothing from the
// pseudo-label pipeline (normalized pair means, up to six k-means runs,
// silhouettes, the confidence filter, the group tables), with the adaptive
// cluster count or a fixed one. Measured: 0 either way (19.5 with a closure
// per op and a fresh permutation per epoch; 31.5 before the softmax losses
// became one node each; 249.3 before the pipeline was pooled, on this data;
// ≈ 440 on the benchmark's).
const calibreStepAllocCeiling = 0

// calibreTrainOutsideAllocCeiling and calibreTrainOutsideByteCeiling bound
// what a warmed Calibre update allocates besides its steps. Measured: 7
// objects, 1.1 KB (13 while the encoding's ops and the first permutation's
// reshuffles made closures and slices, 17 before; 26 and 22 KB with the
// divergence encoding a heap copy of the client's rows outside any tape).
const (
	calibreTrainOutsideAllocCeiling = 10
	calibreTrainOutsideByteCeiling  = 4096
)

// TestCalibreStepAllocations pins the steady-state allocation count of a
// training step with Regularizer.Apply installed (the state of every round
// past warm-up), at the experiments' batch size, as the difference of a long
// and a short ssl.Train on a warmed client: with the adaptive cluster count
// and with a fixed one.
func TestCalibreStepAllocations(t *testing.T) {
	for _, fixedK := range []bool{false, true} {
		opts := DefaultOptions()
		opts.FixedK = fixedK
		reg, err := NewRegularizer(opts)
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
		t.Logf("FixedK=%v: %.1f allocations per step", fixedK, perStep)
		if perStep > calibreStepAllocCeiling {
			t.Errorf("FixedK=%v: a warmed Calibre step makes %.1f allocations, ceiling %d", fixedK, perStep, calibreStepAllocCeiling)
		}
	}
}

// TestCalibreTrainAllocationsOutsideSteps pins what a warmed Calibre local
// update (SSLTrainer.Train past the regularizer's warm-up) allocates outside
// its training steps — binding the client's model, the update, and the
// divergence clustering on the encodings of the client's train rows — in
// objects and in bytes: a one-epoch call's total less its epoch of steps,
// half the difference of a three-epoch and a one-epoch call. The encodings are taped
// step values; encoding a heap copy of the rows instead shows here as
// kilobytes per call.
func TestCalibreTrainAllocationsOutsideSteps(t *testing.T) {
	clients := testClients(t, 2, 60)
	cfg := DefaultConfig(testArch(), "simclr", 10)
	cfg.Train = shortTrainCfg()
	method, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := method.Trainer.(*SSLTrainer)
	global, err := method.InitGlobal(rand.New(rand.NewSource(84)))
	if err != nil {
		t.Fatal(err)
	}
	client, rng := clients[0], rand.New(rand.NewSource(85))
	train := func(epochs int) func() {
		return func() {
			trainer.Cfg.Epochs = epochs
			rng.Seed(85)
			u, err := trainer.Train(context.Background(), rng, client, global, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			u.GiveBack()
		}
	}
	allocs := func(epochs int) (objects, bytes float64) {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, train(epochs))
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	train(3)() // warm the pooled tape, the client's row and its k-means workspace
	objects1, bytes1 := allocs(1)
	objects3, bytes3 := allocs(3)
	objects := objects1 - (objects3-objects1)/2
	bytes := bytes1 - (bytes3-bytes1)/2
	t.Logf("outside the steps: %.1f objects, %.0f bytes", objects, bytes)
	if objects > calibreTrainOutsideAllocCeiling {
		t.Errorf("a warmed Calibre update makes %.1f allocations outside its steps, ceiling %d", objects, calibreTrainOutsideAllocCeiling)
	}
	if bytes > calibreTrainOutsideByteCeiling {
		t.Errorf("a warmed Calibre update allocates %.0f bytes outside its steps, ceiling %d", bytes, calibreTrainOutsideByteCeiling)
	}
}
