package kmeans

import (
	"fmt"
	"math/rand"
	"testing"

	"calibre/internal/tensor"
)

func BenchmarkRunBatch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandN(rng, 1, 64, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(rng, x, Config{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSilhouette64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandN(rng, 1, 64, 48)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Silhouette(x, labels)
	}
}

// BenchmarkAssignPoints times one Lloyd assignment at the federation's
// batch (32 points of 48 features) for every K SelectK tries: the loop
// tensor.SqDistTile serves, four points against four centres per tile.
func BenchmarkAssignPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandN(rng, 1, 32, 48)
	assign := make([]int, 32)
	for _, k := range []int{2, 3, 4, 6, 8, 10} {
		centers := tensor.RandN(rng, 1, k, 48)
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignPoints(x, centers, assign)
			}
		})
	}
}
