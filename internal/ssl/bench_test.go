package ssl

import (
	"math/rand"
	"testing"

	"calibre/internal/data"
	"calibre/internal/nn"
	"calibre/internal/tensor"
)

// benchmarkMethodStep measures one full SSL training step (two-view
// forward, loss, backward, state update) for a registered method.
func benchmarkMethodStep(b *testing.B, name string) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	backbone := NewBackbone(rng, Arch{InputDim: 64, HiddenDim: 96, FeatDim: 48, ProjDim: 24})
	factory, err := Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	method, err := factory(rng, backbone)
	if err != nil {
		b.Fatal(err)
	}
	tr := &Trainable{Backbone: backbone, Method: method}
	opt := nn.NewSGD(tr, 0.03, 0.9, 0)
	rows := make([][]float64, 32)
	for i := range rows {
		r := make([]float64, 64)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	aug := data.DefaultAugmenter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v1, v2 := aug.TwoViews(rng, rows)
		ctx := NewStepContextOn(nil, rng, backbone, v1, v2)
		loss := method.Loss(ctx)
		opt.ZeroGrad()
		if err := nn.Backward(loss); err != nil {
			b.Fatal(err)
		}
		opt.Step()
		method.AfterStep(backbone)
	}
}

// BenchmarkSimCLRStepLargeBatch runs a step at a batch/width big enough for
// the backbone's matrix products to use the parallel kernel pool, comparing
// one worker against the default pool. Per-step results are bit-identical
// across pool sizes (see internal/tensor's determinism guarantee).
func BenchmarkSimCLRStepLargeBatch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pool", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tensor.SetWorkers(bc.workers)
			defer tensor.SetWorkers(0)
			rng := rand.New(rand.NewSource(2))
			backbone := NewBackbone(rng, Arch{InputDim: 256, HiddenDim: 256, FeatDim: 128, ProjDim: 64})
			factory, err := Lookup("simclr")
			if err != nil {
				b.Fatal(err)
			}
			method, err := factory(rng, backbone)
			if err != nil {
				b.Fatal(err)
			}
			tr := &Trainable{Backbone: backbone, Method: method}
			opt := nn.NewSGD(tr, 0.03, 0.9, 0)
			rows := make([][]float64, 128)
			for i := range rows {
				r := make([]float64, 256)
				for j := range r {
					r[j] = rng.NormFloat64()
				}
				rows[i] = r
			}
			aug := data.DefaultAugmenter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v1, v2 := aug.TwoViews(rng, rows)
				ctx := NewStepContextOn(nil, rng, backbone, v1, v2)
				loss := method.Loss(ctx)
				opt.ZeroGrad()
				if err := nn.Backward(loss); err != nil {
					b.Fatal(err)
				}
				opt.Step()
				method.AfterStep(backbone)
			}
		})
	}
}

func BenchmarkSimCLRStep(b *testing.B)  { benchmarkMethodStep(b, "simclr") }
func BenchmarkBYOLStep(b *testing.B)    { benchmarkMethodStep(b, "byol") }
func BenchmarkSimSiamStep(b *testing.B) { benchmarkMethodStep(b, "simsiam") }
func BenchmarkMoCoV2Step(b *testing.B)  { benchmarkMethodStep(b, "mocov2") }
func BenchmarkSwAVStep(b *testing.B)    { benchmarkMethodStep(b, "swav") }
func BenchmarkSMoGStep(b *testing.B)    { benchmarkMethodStep(b, "smog") }
