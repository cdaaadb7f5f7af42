package baselines_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"calibre/internal/baselines"
	"calibre/internal/experiments"
	"calibre/internal/fl"
)

// TestGoldenLedger pins the bits every registry method ends on: two
// simulator rounds at smoke scale, then personalization of participants and
// novel clients, one line per method holding the FNV-64a digest of the final
// global vector's IEEE-754 bits and the fairness summary (shortest
// round-trip decimals, so a one-ulp change is a diff). A change to the
// training step, the optimizer, a kernel or an RNG stream that moves any
// method's arithmetic shows up as a changed line in testdata/ledger.txt.
// Regenerate with
// CALIBRE_UPDATE_FIXTURES=1 go test ./internal/baselines -run GoldenLedger.
func TestGoldenLedger(t *testing.T) {
	setting, ok := experiments.Settings()["cifar10-q(2,500)"]
	if !ok {
		t.Fatal("setting cifar10-q(2,500) missing")
	}
	env, err := experiments.BuildEnvironment(setting, experiments.ScaleSmoke, 42)
	if err != nil {
		t.Fatal(err)
	}
	names := baselines.MethodNames()
	lines := make([]string, len(names))
	// The group returns once its parallel subtests have all finished.
	t.Run("methods", func(t *testing.T) {
		for i, name := range names {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				m, err := experiments.BuildMethod(env, name)
				if err != nil {
					t.Fatal(err)
				}
				out, err := experiments.RunBuiltMethodWith(context.Background(), env, m, func(cfg *fl.SimConfig) { cfg.Rounds = 2 })
				if err != nil {
					t.Fatal(err)
				}
				p, n := out.Participants.Summary, out.Novel.Summary
				lines[i] = fmt.Sprintf("%s digest=%016x mean=%s var=%s bottom10=%s novel_mean=%s novel_var=%s",
					name, digest(out.Global), g(p.Mean), g(p.Variance), g(p.Bottom10), g(n.Mean), g(n.Variance))
			})
		}
	})
	if t.Failed() {
		return
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "ledger.txt")
	if os.Getenv("CALIBRE_UPDATE_FIXTURES") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatalf("update fixture: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read fixture (set CALIBRE_UPDATE_FIXTURES=1 to create): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d lines, the registry %d methods", golden, len(wantLines), len(lines))
	}
	for i, l := range lines {
		if i >= len(wantLines) || l != wantLines[i] {
			w := "(no such line)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("%s line %d drifted:\n got  %s\n want %s", golden, i+1, l, w)
		}
	}
}

func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digest is the FNV-64a hash of a vector's IEEE-754 bits (bench/ uses the
// same one): two runs agree on it only if they did the same arithmetic in
// the same order.
func digest(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}
