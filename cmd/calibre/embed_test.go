package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"
)

// TestEmbedSmokeWritesParseableCSV: `fig -exp figN -out DIR` on a t-SNE
// figure writes the 2-D points next to the results, one row per embedded
// sample under the header the plotting scripts read.
func TestEmbedSmokeWritesParseableCSV(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error {
		return run([]string{"fig", "-exp", "fig1", "-scale", "smoke", "-seed", "7", "-out", dir})
	})
	f, err := os.Open(filepath.Join(dir, "fig1-embeddings.csv"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	// 2 methods × 384 embedded samples at this figure, scale and seed.
	if len(rows) != 1+768 {
		t.Fatalf("want header + 768 data rows, got %d rows", len(rows))
	}
	header := rows[0]
	want := []string{"method", "x", "y", "label", "client"}
	if len(header) != len(want) {
		t.Fatalf("header = %v, want %v", header, want)
	}
	for i, col := range want {
		if header[i] != col {
			t.Fatalf("header[%d] = %q, want %q", i, header[i], col)
		}
	}
}

// TestFigOutSkipsEmbeddingsForAccuracyFigure: an accuracy figure has no
// 2-D points, so -out writes its results and no embeddings file.
func TestFigOutSkipsEmbeddingsForAccuracyFigure(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, func() error {
		return run([]string{"fig", "-exp", "fig3", "-scale", "smoke", "-seed", "7", "-out", dir})
	})
	if _, err := os.Stat(filepath.Join(dir, "fig3-results.csv")); err != nil {
		t.Fatalf("results CSV not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig3-embeddings.csv")); !os.IsNotExist(err) {
		t.Fatalf("embeddings CSV for a figure without embeddings: stat err = %v", err)
	}
}
