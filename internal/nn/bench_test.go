package nn

import (
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandN(rng, 1, 64, 64)
	y := tensor.RandN(rng, 1, 64, 64)
	out := tensor.New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := MLP(rng, "bench", 64, 96, 48)
	x := tensor.RandN(rng, 1, 32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ForwardTensor(m, x)
	}
}

// BenchmarkLinearActReLUSparse is one hidden layer's forward and backward
// pass at the federation's shape (batch 32, 96 → 48) with the sparsity ReLU
// gives it: half the inputs are exact zeros (the product's coefficient
// compaction) and half the pre-activations are negative (the activation
// and its gradient mask), each a coin flip per element.
func BenchmarkLinearActReLUSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	lin := NewLinear(rng, 96, 48, "bench")
	// A training step never sees a batch twice; one repeated input would
	// let the branch predictor learn its sign pattern.
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.RandN(rng, 1, 32, 96)
		for j, v := range xs[i].Data() {
			if v < 0 {
				xs[i].Data()[j] = 0
			}
		}
	}
	arena := tensor.NewArena()
	tp := NewTape(arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.W.ZeroGrad()
		lin.B.ZeroGrad()
		loss := SumSquares(LinearAct(InputOn(tp, xs[i%len(xs)]), lin.W.Node(), lin.B.Node(), ActReLU))
		if err := Backward(loss); err != nil {
			b.Fatal(err)
		}
		tp.Reset()
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := MLP(rng, "bench", 64, 96, 48, 10)
	opt := NewSGD(m, 0.05, 0.9, 0)
	x := tensor.RandN(rng, 1, 32, 64)
	targets := make([]int, 32)
	for i := range targets {
		targets[i] = rng.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ZeroGrad()
		loss := CrossEntropy(ForwardTensor(m, x), targets)
		if err := Backward(loss); err != nil {
			b.Fatal(err)
		}
		opt.Step()
	}
}

// BenchmarkMLPTrainStepLarge exercises a train step big enough that the
// Linear forward/backward matrix products leave tensor's serial fast path,
// comparing a single-worker pool against the default pool size. On a
// multi-core host the pooled variant tracks the kernel speedup; results are
// bit-identical either way.
func BenchmarkMLPTrainStepLarge(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"pool", 0}, // default: GOMAXPROCS or CALIBRE_KERNEL_WORKERS
	} {
		b.Run(bc.name, func(b *testing.B) {
			tensor.SetWorkers(bc.workers)
			defer tensor.SetWorkers(0)
			rng := rand.New(rand.NewSource(5))
			m := MLP(rng, "bench", 256, 256, 128, 10)
			opt := NewSGD(m, 0.05, 0.9, 0)
			x := tensor.RandN(rng, 1, 128, 256)
			targets := make([]int, 128)
			for i := range targets {
				targets[i] = rng.Intn(10)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.ZeroGrad()
				loss := CrossEntropy(ForwardTensor(m, x), targets)
				if err := Backward(loss); err != nil {
					b.Fatal(err)
				}
				opt.Step()
			}
		})
	}
}

func BenchmarkNTXentForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	h := NewParam("h", 64, 24)
	for i, d := 0, h.Value.Data(); i < len(d); i++ {
		d[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ZeroGrad()
		loss := NTXent(h.Node(), 0.5)
		if err := Backward(loss); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlattenUnflatten(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := MLP(rng, "bench", 64, 96, 48)
	vec := Flatten(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec = Flatten(m)
		if err := Unflatten(m, vec); err != nil {
			b.Fatal(err)
		}
	}
}
