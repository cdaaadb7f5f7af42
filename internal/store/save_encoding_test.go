package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// TestSaveWritesTheFrameFromTheVector: Save writes a file in pieces — the
// encoder's small buffer around the global's own bytes — and each file is
// byte for byte the frame EncodeSnapshot builds whole, with the CRC taken
// over all the pieces. The store keeps no model-sized frame between saves.
func TestSaveWritesTheFrameFromTheVector(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 4096
	g1, g2 := make(param.Vector, n), make(param.Vector, n)
	for i := range g1 {
		g1[i] = rng.NormFloat64()
		g2[i] = g1[i] + 1e-6*rng.NormFloat64()
	}
	g1[0], g1[1], g1[2] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	snap := func(round int, g param.Vector) *Snapshot {
		return &Snapshot{Meta: Meta{Seed: 3, Fingerprint: "fp", Runtime: "server"}, State: fl.SimState{
			Round:          round,
			Global:         g,
			History:        []fl.RoundStats{{Round: 0, Participants: []int{0, 2}, Responders: []int{2}, MeanLoss: 0.25}},
			EligibleCounts: []int{3, 3},
		}}
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[int]*Snapshot{1: snap(1, g1), 2: snap(2, g2)}
	for v := 1; v <= len(snaps); v++ {
		if _, err := st.Save(snaps[v]); err != nil {
			t.Fatal(err)
		}
		if c := cap(st.enc); c >= 8*n {
			t.Fatalf("the store keeps a %d-byte frame buffer, the global is %d bytes", c, 8*n)
		}
	}
	for v, s := range snaps {
		want, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, fileFor(v)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d: Save wrote %d bytes that differ from the %d-byte frame built whole", v, len(got), len(want))
		}
		// The pieces of a lending encode are the whole frame, cut around
		// the payload.
		lent, err := encodeSnapshot(nil, s, true)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := lent.writeTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) || len(lent.lent) == 0 {
			t.Fatalf("version %d: the pieces (%d buffered + %d lent bytes) are not the %d-byte frame around a lent payload", v, len(lent.buf), len(lent.lent), len(want))
		}
	}
}

// TestWarmSaveAllocatesLessThanAVector: once a store has saved, the next
// save allocates less than one model vector: the frame's small buffer is
// kept, and the global is written from where it is.
func TestWarmSaveAllocatesLessThanAVector(t *testing.T) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(10))
	gs := [2]param.Vector{make(param.Vector, n), make(param.Vector, n)}
	for i := range gs[0] {
		gs[0][i] = rng.NormFloat64()
		gs[1][i] = gs[0][i] + 1e-6*rng.NormFloat64()
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	save := func(round int) {
		s := &Snapshot{Meta: Meta{Seed: 1, Fingerprint: "fp"}, State: fl.SimState{Round: round, Global: gs[round%2]}}
		if _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= 3; r++ {
		save(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	save(4)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*n {
		t.Errorf("a warm save allocated %d bytes, a model vector is %d", got, 8*n)
	}
}
