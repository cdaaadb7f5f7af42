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

// TestSaveWritesTheSmallerEncoding pins what an incremental Save puts on
// disk now that it encodes once: exactly the blob the encode-both rule
// chose — the delta when it is strictly smaller than the full snapshot,
// the full snapshot otherwise — including on either side of the tie.
func TestSaveWritesTheSmallerEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := make(param.Vector, 512)
	drift, noise := base.Clone(), base.Clone()
	for i := range base {
		base[i] = rng.NormFloat64()
		drift[i] = base[i] + 1e-5*rng.NormFloat64()
		noise[i] = math.Float64frombits(rng.Uint64() | 1<<63)
	}
	// words builds a vector whose delta against zeros has literal words of
	// the given varint lengths, so the payload size is known to the byte:
	// with 16 elements the blobs tie at 118 bytes of words.
	zeros := make(param.Vector, 16)
	words := func(last ...int) param.Vector {
		v := make(param.Vector, 16)
		for i := range v {
			n := 8
			if k := i - (16 - len(last)); k >= 0 {
				n = last[k]
			}
			v[i] = math.Float64frombits(1 << (7*n - 1))
		}
		return v
	}
	cases := []struct {
		name        string
		ref, next   param.Vector
		incremental bool
	}{
		{"drift", base, drift, true},
		{"noise", base, noise, false},
		{"one-byte-smaller", zeros, words(3, 2), true},
		{"tie", zeros, words(3, 3), false},
		{"one-byte-larger", zeros, words(4, 3), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.SetIncremental(true)
			snap := func(round int, g param.Vector) *Snapshot {
				return &Snapshot{Meta: Meta{Seed: 1, Fingerprint: "fp"},
					State: fl.SimState{Round: round, Global: g}}
			}
			if _, err := st.Save(snap(1, tc.ref)); err != nil {
				t.Fatal(err)
			}
			next := snap(2, tc.next)
			v, err := st.Save(next)
			if err != nil {
				t.Fatal(err)
			}
			full, err := EncodeSnapshot(next)
			if err != nil {
				t.Fatal(err)
			}
			var d param.Delta
			if err := param.DiffInto(&d, tc.ref, tc.next); err != nil {
				t.Fatal(err)
			}
			delta, err := encodeSnapshotDelta(nil, next, 1, &d, false)
			if err != nil {
				t.Fatal(err)
			}
			want := delta.buf
			if incremental := len(want) < len(full); incremental != tc.incremental {
				t.Fatalf("delta blob %d bytes, full %d: the case is not what its name says", len(want), len(full))
			}
			if !tc.incremental {
				want = full
			}
			got, err := os.ReadFile(filepath.Join(dir, fileFor(2)))
			if err != nil || v != 2 {
				t.Fatalf("read version %d: %v", v, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Save wrote %d bytes, the smaller encoding is %d bytes (delta %v)", len(got), len(want), tc.incremental)
			}
		})
	}
}

// TestSaveWritesTheFrameFromTheVector: Save writes a file in pieces — the
// encoder's small buffer around the global's own bytes, or around the
// delta's bits — and each file is byte for byte the frame EncodeSnapshot or
// encodeSnapshotDelta builds whole, with the CRC taken over all the pieces.
// The store keeps no model-sized frame between saves.
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
	st.SetIncremental(true)
	first, second := snap(1, g1), snap(2, g2)
	for _, s := range []*Snapshot{first, second} {
		if _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		if c := cap(st.enc); c >= 8*n {
			t.Fatalf("the store keeps a %d-byte frame buffer, the global is %d bytes", c, 8*n)
		}
	}
	full, err := EncodeSnapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	var d param.Delta
	if err := param.DiffInto(&d, g1, g2); err != nil {
		t.Fatal(err)
	}
	delta, err := encodeSnapshotDelta(nil, second, 1, &d, false)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int][]byte{1: full, 2: delta.buf} {
		got, err := os.ReadFile(filepath.Join(dir, fileFor(v)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d: Save wrote %d bytes that differ from the %d-byte frame built whole", v, len(got), len(want))
		}
	}
	// The pieces of a lending encode are the whole frame, cut around the
	// payload.
	lentFull, err := encodeSnapshot(nil, first, true)
	if err != nil {
		t.Fatal(err)
	}
	lentDelta, err := encodeSnapshotDelta(nil, second, 1, &d, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		p    pieces
		want []byte
	}{"full": {lentFull, full}, "delta": {lentDelta, delta.buf}} {
		var b bytes.Buffer
		if err := c.p.writeTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), c.want) || len(c.p.lent) == 0 {
			t.Fatalf("%s: the pieces (%d buffered + %d lent bytes) are not the %d-byte frame around a lent payload", name, len(c.p.buf), len(c.p.lent), len(c.want))
		}
	}
}

// TestWarmSaveAllocatesLessThanAVector: once a store has saved, the next
// save — full, or incremental on the write-behind path that hands the
// store its global — allocates less than one model vector: the frame's
// small buffer and the delta's are kept, and the global is written from
// where it is.
func TestWarmSaveAllocatesLessThanAVector(t *testing.T) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(10))
	gs := [2]param.Vector{make(param.Vector, n), make(param.Vector, n)}
	for i := range gs[0] {
		gs[0][i] = rng.NormFloat64()
		gs[1][i] = gs[0][i] + 1e-6*rng.NormFloat64()
	}
	for _, incremental := range []bool{false, true} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.SetIncremental(incremental)
		save := func(round int) {
			s := &Snapshot{Meta: Meta{Seed: 1, Fingerprint: "fp"}, State: fl.SimState{Round: round, Global: gs[round%2]}}
			if _, err := st.save(s, true); err != nil {
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
			t.Errorf("incremental %v: a warm save allocated %d bytes, a model vector is %d", incremental, got, 8*n)
		}
	}
}
