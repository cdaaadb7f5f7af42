package calibre

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (indexed in README.md "Experiments"). Each benchmark regenerates its
// artifact end to end — dataset synthesis, non-i.i.d. partitioning,
// federated training of every method in the figure, the personalization
// stage, and (for the t-SNE figures) representation metrics + 2-D
// embeddings. Benchmarks run at smoke scale so `go test -bench=.` stays
// tractable; use `go run ./cmd/calibre fig -scale ci|paper` for the
// larger reproductions.

import (
	"context"
	"testing"

	"calibre/internal/experiments"
)

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report, err := experiments.Run(context.Background(), id, experiments.ScaleSmoke, 42)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
		if len(report.Settings) == 0 && len(report.Ablation) == 0 {
			b.Fatalf("experiment %s produced no results", id)
		}
	}
}

// BenchmarkFig1EmbeddingsAcrossClients regenerates Fig. 1: t-SNE of
// pFL-SimCLR / pFL-BYOL representations pooled across clients (fuzzy
// cluster boundaries across clients).
func BenchmarkFig1EmbeddingsAcrossClients(b *testing.B) { benchmarkExperiment(b, "fig1") }

// BenchmarkFig2EmbeddingsWithinClient regenerates Fig. 2: per-client t-SNE
// close-ups with personalized accuracies (fuzzy boundaries within clients).
func BenchmarkFig2EmbeddingsWithinClient(b *testing.B) { benchmarkExperiment(b, "fig2") }

// BenchmarkFig3QNonIIDSweep regenerates Fig. 3: mean/variance of test
// accuracy for 20 methods over CIFAR-10 Q(2,500), CIFAR-100 Q(5,500),
// STL-10 Q(2,46) and STL-10 D(0.3,80).
func BenchmarkFig3QNonIIDSweep(b *testing.B) { benchmarkExperiment(b, "fig3") }

// BenchmarkFig4DNonIIDNovelClients regenerates Fig. 4: 12 methods on
// CIFAR-10 D(0.3,600) and CIFAR-100 D(0.3,500), for participating and
// novel clients.
func BenchmarkFig4DNonIIDNovelClients(b *testing.B) { benchmarkExperiment(b, "fig4") }

// BenchmarkTable1Ablation regenerates Table I: the L_n/L_p ablation for
// Calibre (SimCLR), Calibre (SwAV) and Calibre (SMoG) on CIFAR-10 Q(2,500).
func BenchmarkTable1Ablation(b *testing.B) { benchmarkExperiment(b, "table1") }

// BenchmarkFig5CalibratedEmbeddings regenerates Fig. 5: t-SNE of
// pFL-SimSiam / pFL-MoCoV2 vs their Calibre-calibrated versions.
func BenchmarkFig5CalibratedEmbeddings(b *testing.B) { benchmarkExperiment(b, "fig5") }

// BenchmarkFig6CalibreSimCLRvsBYOL regenerates Fig. 6: Calibre (SimCLR) vs
// Calibre (BYOL) embeddings including the client close-ups.
func BenchmarkFig6CalibreSimCLRvsBYOL(b *testing.B) { benchmarkExperiment(b, "fig6") }

// BenchmarkFig7SupervisedVsCalibre regenerates Fig. 7: FedAvg / FedRep /
// FedPer / FedBABU / LG-FedAvg / Calibre (SimCLR) embeddings on CIFAR-10.
func BenchmarkFig7SupervisedVsCalibre(b *testing.B) { benchmarkExperiment(b, "fig7") }

// BenchmarkFig8STL10Embeddings regenerates Fig. 8: the same six methods on
// STL-10 Q(2).
func BenchmarkFig8STL10Embeddings(b *testing.B) { benchmarkExperiment(b, "fig8") }

// BenchmarkDesignAblation evaluates this reproduction's own design choices
// (adaptive K, silhouette quality gate, confidence filter, warm-up; see
// ARCHITECTURE.md "Design choices") by switching each off in turn.
func BenchmarkDesignAblation(b *testing.B) { benchmarkExperiment(b, "design") }
