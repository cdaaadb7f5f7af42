package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
			want, err := encodeSnapshotDelta(nil, next, 1, &d)
			if err != nil {
				t.Fatal(err)
			}
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
