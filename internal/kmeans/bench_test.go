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
// batch (32 points of 48 features) for every K SelectK tries, both ways a
// Run assigns: computing the distances, four points against four centres
// per tensor.SqDistTile, and — the first assignment of a Run given a
// PairSq table, whose centres are still points — reading them from it.
func BenchmarkAssignPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandN(rng, 1, 32, 48)
	sq, _ := pairTablesOf(x)
	assign := make([]int, 32)
	for _, k := range []int{2, 3, 4, 6, 8, 10} {
		picks := rng.Perm(32)[:k]
		centers := tensor.New(k, 48)
		for c, p := range picks {
			centers.SetRow(c, x.Row(p))
		}
		b.Run(fmt.Sprintf("K=%d/tiles", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignPoints(x, centers, assign)
			}
		})
		b.Run(fmt.Sprintf("K=%d/table", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignToPoints(sq, picks, assign)
			}
		})
	}
}
