package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestStoreSaveOpenLatest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := st.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty store = %v, want ErrNoCheckpoint", err)
	}

	a := testSnapshot()
	v1, err := st.Save(a)
	if err != nil || v1 != 1 {
		t.Fatalf("Save #1 = (%d, %v), want (1, nil)", v1, err)
	}
	b := testSnapshot()
	b.State.Round = 4
	b.State.Global[0] = 99
	b.State.History = append(b.State.History, b.State.History[0])
	b.State.EligibleCounts = append(b.State.EligibleCounts, 3)
	v2, err := st.Save(b)
	if err != nil || v2 != 2 {
		t.Fatalf("Save #2 = (%d, %v), want (2, nil)", v2, err)
	}

	got, err := st.Open(1)
	if err != nil {
		t.Fatalf("Open(1): %v", err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("Open(1) = %+v, want %+v", got, a)
	}
	latest, version, err := st.Latest()
	if err != nil || version != 2 {
		t.Fatalf("Latest = (v%d, %v), want v2", version, err)
	}
	if !reflect.DeepEqual(latest, b) {
		t.Fatal("Latest returned the wrong snapshot")
	}
	if _, err := st.Open(9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open(9) = %v, want ErrNotFound", err)
	}

	// No temp litter after successful saves.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// TestLatestSkipsTornWrite is the crash-recovery contract: a truncated
// newest file (a kill mid-write) must fall back to the previous good
// snapshot, and a fully garbage file must be skipped the same way.
func TestLatestSkipsTornWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Save(testSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	newer := testSnapshot()
	newer.State.Round = 9
	if _, err := st.Save(newer); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Tear the newest file in half.
	path := filepath.Join(dir, fileFor(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	snap, version, err := st.Latest()
	if err != nil {
		t.Fatalf("Latest with torn head: %v", err)
	}
	if version != 1 || snap.State.Round != 3 {
		t.Fatalf("Latest = v%d round %d, want the good v1", version, snap.State.Round)
	}

	list, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 2 || list[0].Corrupt || !list[1].Corrupt {
		t.Fatalf("List = %+v, want v1 good and v2 corrupt", list)
	}
	if list[0].Round != 3 || list[0].Params != 4 {
		t.Fatalf("List[0] metadata = %+v", list[0])
	}
}

func TestResumeFingerprintGuard(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got, v, err := st.Resume("any"); got != nil || v != 0 || err != nil {
		t.Fatalf("Resume on an empty store = %v, v%d, %v; want a fresh start", got, v, err)
	}
	snap := testSnapshot()
	snap.Meta.Fingerprint = Fingerprint("sim", "calibre-simclr", "cifar10-q(2,500)", "42")
	if _, err := st.Save(snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, _, err := st.Resume(snap.Meta.Fingerprint); err != nil {
		t.Fatalf("matching resume: %v", err)
	}
	if _, _, err := st.Resume(Fingerprint("sim", "fedavg", "cifar10-q(2,500)", "42")); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mismatched resume = %v, want ErrFingerprintMismatch", err)
	}
	// Empty expected fingerprint skips the guard (caller opted out).
	if _, _, err := st.Resume(""); err != nil {
		t.Fatalf("unguarded resume: %v", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Fingerprint("server", "calibre-simclr", "7")
	if a != Fingerprint("server", "calibre-simclr", "7") {
		t.Fatal("fingerprint is not deterministic")
	}
	if a == Fingerprint("server", "calibre-simclr", "8") {
		t.Fatal("fingerprint ignores its inputs")
	}
	// Joining must be injective across field boundaries.
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Fatal("fingerprint field boundaries collide")
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint length %d, want 16 hex chars", len(a))
	}
}

func TestParseVersion(t *testing.T) {
	cases := map[string]struct {
		v  int
		ok bool
	}{
		"ckpt-00000001.calibre": {1, true},
		"ckpt-00012345.calibre": {12345, true},
		"ckpt-.calibre":         {0, false},
		"ckpt-0000000x.calibre": {0, false},
		"ckpt-00000000.calibre": {0, false}, // versions start at 1
		"other.calibre":         {0, false},
		".tmp-ckpt-123":         {0, false},
	}
	for name, c := range cases {
		v, ok := parseVersion(name)
		if v != c.v || ok != c.ok {
			t.Errorf("parseVersion(%q) = (%d, %v), want (%d, %v)", name, v, ok, c.v, c.ok)
		}
	}
}

// TestPublishNeverReplaces simulates the save race: another process
// published the version this saver computed, between the directory
// listing and the publish. The no-replace primitive must leave the
// racer's file intact and land this save in the next free version.
func TestPublishNeverReplaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	racer := []byte("racer's snapshot")
	if err := os.WriteFile(filepath.Join(dir, fileFor(1)), racer, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".tmp-mine")
	if err := os.WriteFile(tmp, []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := s.publish(tmp, 1)
	if err != nil || v != 2 {
		t.Fatalf("publish = (%d, %v), want (2, nil)", v, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, fileFor(1))); err != nil || string(got) != string(racer) {
		t.Fatalf("racer's snapshot clobbered: %q, %v", got, err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, fileFor(2))); err != nil || string(got) != "mine" {
		t.Fatalf("published snapshot = %q, %v, want %q", got, err, "mine")
	}
}

// TestConcurrentSavesNeverClobber: multiple Store handles saving into one
// directory (multiple processes in production) must yield one version per
// save with every snapshot decodable — no clobbered or lost checkpoints.
func TestConcurrentSavesNeverClobber(t *testing.T) {
	dir := t.TempDir()
	const savers, each = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < savers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := Open(dir)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			for j := 0; j < each; j++ {
				snap := testSnapshot()
				snap.Meta.Seed = int64(i*each + j)
				if _, err := st.Save(snap); err != nil {
					t.Errorf("Save: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(entries) != savers*each {
		t.Fatalf("%d snapshots on disk, want %d", len(entries), savers*each)
	}
	seeds := make(map[int64]bool)
	for _, e := range entries {
		if e.Corrupt {
			t.Errorf("version %d corrupt", e.Version)
			continue
		}
		seeds[e.Meta.Seed] = true
	}
	if len(seeds) != savers*each {
		t.Fatalf("%d distinct snapshots survive, want %d (a save was clobbered)", len(seeds), savers*each)
	}
}

// TestSaveNumbersFromItsOwnLastVersion: only a handle's first save lists the
// directory. After that it starts right above the version it wrote last and
// lets the no-replace publish step over what other savers put there, so a
// save costs the same in a directory of ten versions and of ten thousand.
func TestSaveNumbersFromItsOwnLastVersion(t *testing.T) {
	dir := t.TempDir()
	mine, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	save := func(s *Store, want int) {
		t.Helper()
		if v, err := s.Save(testSnapshot()); err != nil || v != want {
			t.Fatalf("Save = (v%d, %v), want v%d", v, err, want)
		}
	}
	save(mine, 1)
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	save(other, 2) // cold start: lists, lands above v1
	save(other, 3)
	save(mine, 4) // starts at v2, steps over the other saver's two
	// A version far ahead is found by a listing and by nothing else.
	if err := os.WriteFile(filepath.Join(dir, fileFor(100)), []byte("someone else's"), 0o644); err != nil {
		t.Fatal(err)
	}
	save(mine, 5)
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	save(fresh, 101)
}

// TestEncoderFloatsMatchesPerElementAppend: the sized-once vector writer
// produces the bytes the per-element one did, wherever in the buffer it
// starts and whether or not the buffer has room.
func TestEncoderFloatsMatchesPerElementAppend(t *testing.T) {
	v := []float64{0, math.Copysign(0, -1), 1, -1.5, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000123)}
	for _, room := range []int{0, 8, 8 * len(v), 1024} {
		for _, n := range []int{0, 1, len(v)} {
			e := &encoder{buf: append(make([]byte, 0, 3+room), "abc"...)}
			e.floats(v[:n])
			want := []byte("abc")
			for _, x := range v[:n] {
				want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
			}
			if !bytes.Equal(e.buf, want) {
				t.Fatalf("room %d, %d floats: %x, want %x", room, n, e.buf, want)
			}
		}
	}
}
