package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

func digest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// TestTrainingLoopBitsPinned pins the parameters the two loops of this
// package end on, on the inputs where their batch draws differ from
// ssl.Train's: every gradient adjustment at once; a dataset of 33 rows at
// batch 32 (data.Batcher drops the 1-row tail, the probe's cursor keeps it);
// a one-sample dataset (trained full-batch on [0]). The digests were recorded
// before the loops moved onto the shared step harness.
func TestTrainingLoopBitsPinned(t *testing.T) {
	ds := testDataset(t, 4) // 40 rows
	sup := func(ds *data.Dataset, mutate func(*SupModel, *SupTrainConfig)) uint64 {
		m := NewSupModel(rand.New(rand.NewSource(11)), testArch(), 10)
		cfg := DefaultSupTrainConfig()
		cfg.BatchSize = 32
		mutate(m, &cfg)
		if _, err := TrainSupervised(rand.New(rand.NewSource(12)), m, ds, cfg); err != nil {
			t.Fatal(err)
		}
		return digest(nn.Flatten(m))
	}
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: parameters end on %#016x, pinned %#016x", name, got, want)
		}
	}
	check("prox+correction+clip", sup(ds, func(m *SupModel, cfg *SupTrainConfig) {
		n := nn.ParamCount(m)
		cfg.ProxMu, cfg.ProxTarget, cfg.GradCorrection = 0.3, make([]float64, n), make([]float64, n)
		for i := range cfg.ProxTarget {
			cfg.ProxTarget[i] = 0.01 * float64(i%7)
			cfg.GradCorrection[i] = 0.002 * float64(i%5-2)
		}
		cfg.ClipNorm = 0.5
	}), 0xcb0698aa2bf8a0ef)
	check("33 rows, frozen encoder", sup(ds.Subset(seq(33)), func(_ *SupModel, cfg *SupTrainConfig) { cfg.FreezeEncoder = true }), 0xf484f19697b35f00)
	check("one sample", sup(ds.Subset([]int{3}), func(*SupModel, *SupTrainConfig) {}), 0x7a2333d7798fd7a4)

	feats := tensor.RandN(rand.New(rand.NewSource(13)), 1, 33, 12)
	labels := make([]int, 33)
	for i := range labels {
		labels[i] = i % 10
	}
	hc := DefaultHeadConfig()
	hc.Epochs, hc.Momentum = 3, 0.9
	head, err := TrainLinearHead(rand.New(rand.NewSource(14)), feats, labels, 10, hc)
	if err != nil {
		t.Fatal(err)
	}
	check("probe, 33 rows", digest(nn.Flatten(head)), 0x37ffbc65e92e66b0)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
