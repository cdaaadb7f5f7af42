package store

import (
	"encoding/binary"
	"math"
	"testing"

	"calibre/internal/fl"
	"calibre/internal/param"
)

// fuzzSeeds builds the committed seed corpus programmatically: valid blobs
// of every flavor plus mutations targeting each decoder gate. go test runs
// every seed as a regular test case; go test -fuzz=FuzzDecode mutates from
// them (additional discovered seeds live in testdata/fuzz/).
func fuzzSeeds() [][]byte {
	snap, _ := EncodeSnapshot(&Snapshot{
		Meta: Meta{Seed: 7, Fingerprint: "abc", Runtime: "simulator"},
		State: fl.SimState{
			Round:  2,
			Global: []float64{1, math.NaN(), math.Inf(-1)},
			History: []fl.RoundStats{
				{Round: 0, Participants: []int{0, 1}, MeanLoss: 0.5},
				{Round: 1, Participants: []int{1}, Responders: []int{1}, Stragglers: []int{}, DeadlineExpired: true},
			},
			EligibleCounts: []int{2, 2},
		},
	})
	var d param.Delta
	_ = param.DiffInto(&d, param.Vector{1, 2, 3}, param.Vector{1, math.NaN(), math.Inf(-1)})
	inc, _ := encodeSnapshotDelta(nil, &Snapshot{
		Meta:  Meta{Seed: 7, Fingerprint: "abc", Runtime: "simulator"},
		State: fl.SimState{Round: 3, History: []fl.RoundStats{{Round: 2}}, EligibleCounts: []int{2}},
	}, 2, &d)

	seeds := [][]byte{snap, inc, hugeVectorBlob(), retiredKindBlob(2), retiredKindBlob(5), nil, []byte(Magic)}
	// Truncations at interesting boundaries.
	for _, cut := range []int{headerSize, headerSize + secHeaderSize, len(snap) / 2, len(snap) - 1} {
		if cut < len(snap) {
			seeds = append(seeds, snap[:cut])
		}
	}
	// Version bump, flag set, corrupt CRC, huge section length / count —
	// each resealed where needed so the mutation reaches its gate.
	mutate := func(src []byte, fn func([]byte)) []byte {
		b := append([]byte(nil), src...)
		fn(b)
		return b
	}
	seeds = append(seeds,
		mutate(snap, func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], 99) }),
		mutate(snap, func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 1); reseal(b) }),
		mutate(snap, func(b []byte) { b[len(b)-1] ^= 0xff }),
		mutate(snap, func(b []byte) { binary.LittleEndian.PutUint64(b[headerSize+1:], 1<<60); reseal(b) }),
		mutate(snap, func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1<<31-1); reseal(b) }),
	)
	return seeds
}

// FuzzDecode is the decoder-hardening gate: arbitrary bytes must never
// panic or over-allocate in DecodeSnapshot — truncated input,
// corrupted CRCs, wrong versions and huge declared lengths all return
// errors. To keep the fuzzer from stalling at the checksum, every input is
// also retried with its magic/version/CRC fixed up so mutations reach the
// section and payload parsers.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll := func(b []byte) {
			if s, err := DecodeSnapshot(b); (s == nil) == (err == nil) {
				t.Fatalf("DecodeSnapshot: snapshot=%v err=%v", s, err)
			}
		}
		decodeAll(data)
		if len(data) >= headerSize+trailerSize {
			fixed := append([]byte(nil), data...)
			copy(fixed[:4], Magic)
			binary.LittleEndian.PutUint16(fixed[4:6], Version)
			binary.LittleEndian.PutUint16(fixed[6:8], 0)
			decodeAll(reseal(fixed))
		}
	})
}

// FuzzSnapshotRoundTrip checks the inverse property from the fuzzer's
// perspective: any snapshot the fuzzer can describe encodes and decodes
// back to itself bit-for-bit.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(3), 2, uint64(math.Float64bits(1.5)), uint64(math.Float64bits(math.Pi)), true)
	f.Add(int64(-1), 0, uint64(0x7ff8dead_beef0001), uint64(0x8000000000000000), false)
	f.Fuzz(func(t *testing.T, seed int64, round int, bits0, bits1 uint64, expired bool) {
		if round < 0 || round > 64 {
			return
		}
		st := fl.SimState{
			Round:  round,
			Global: []float64{math.Float64frombits(bits0), math.Float64frombits(bits1)},
		}
		for r := 0; r < round; r++ {
			h := fl.RoundStats{Round: r, Participants: []int{r % 3}, MeanLoss: math.Float64frombits(bits0 ^ uint64(r))}
			if expired && r%2 == 0 {
				h.DeadlineExpired = true
				h.Responders = []int{}
				h.Stragglers = []int{r % 3}
			}
			st.History = append(st.History, h)
			st.EligibleCounts = append(st.EligibleCounts, 3)
		}
		snap := &Snapshot{Meta: Meta{Seed: seed, Fingerprint: "fp", Runtime: "fuzz"}, State: st}
		blob, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Meta != snap.Meta || got.State.Round != st.Round {
			t.Fatalf("meta/round mismatch: %+v", got)
		}
		for i := range st.Global {
			if math.Float64bits(got.State.Global[i]) != math.Float64bits(st.Global[i]) {
				t.Fatalf("global[%d] bits differ", i)
			}
		}
		if len(got.State.History) != round || len(got.State.EligibleCounts) != round {
			t.Fatalf("history/counts length mismatch: %+v", got.State)
		}
	})
}
