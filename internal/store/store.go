package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"calibre/internal/fl"
)

// Store-level typed errors.
var (
	// ErrNoCheckpoint is returned by Latest when the directory
	// holds no decodable snapshot.
	ErrNoCheckpoint = errors.New("store: no usable checkpoint")
	// ErrFingerprintMismatch is returned by Resume when the latest
	// snapshot belongs to a differently-configured federation.
	ErrFingerprintMismatch = errors.New("store: checkpoint belongs to a different federation configuration")
	// ErrNotFound is returned by Open for a version with no file.
	ErrNotFound = errors.New("store: checkpoint version not found")
)

const (
	filePrefix = "ckpt-"
	fileExt    = ".calibre"
)

// Store is a directory of versioned snapshots. Versions are dense positive
// integers assigned by Save; each lives in its own ckpt-%08d.calibre file,
// written atomically (temp file + fsync + no-replace link) so a crash
// mid-write can never damage an existing snapshot — at worst it leaves a
// torn temp file or a new file that fails its CRC, both of which Latest
// skips. Publishing never replaces an existing file, so concurrent Saves
// into one directory (two processes, or two Store handles) each land in
// their own version instead of clobbering each other. Every file is a full
// snapshot: opening a version reads that one file.
type Store struct {
	dir string

	// mu serializes this handle's saves (other handles and processes are
	// kept apart by publish) and guards everything below.
	mu sync.Mutex
	// published is the highest version this handle has written: the next
	// save starts publishing right above it instead of listing the
	// directory. 0 until the first save, which lists once.
	published int
	// enc is the frame encoder's buffer, kept between saves.
	enc []byte
}

// Open opens (creating if necessary) a checkpoint directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

func fileFor(version int) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, version, fileExt)
}

// parseVersion extracts the version from a snapshot file name.
func parseVersion(name string) (int, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileExt) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileExt)
	if len(digits) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > 1<<31 {
			return 0, false
		}
	}
	if v < 1 || int64(int(v)) != v { // the second: 1<<31 on a 32-bit platform
		return 0, false
	}
	return int(v), true
}

// Versions lists the snapshot versions present on disk, ascending. It does
// not validate file contents.
func (s *Store) Versions() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", s.dir, err)
	}
	var out []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if v, ok := parseVersion(e.Name()); ok {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// SetIncremental does nothing: every Save writes a full snapshot.
//
// Deprecated: incremental checkpoints were removed. The method stays only
// until the benchmark harness stops calling it.
func (s *Store) SetIncremental(bool) {}

// Save encodes snap and writes it as the next version. The write is
// atomic and never replaces an existing file: the blob lands in a temp
// file in the same directory, is synced, and is then published under the
// next free version with a no-replace primitive (see publish). When Save
// returns the version is durable; snap stays the caller's.
func (s *Store) Save(snap *Snapshot) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The frame takes the global by reference: the file is written from
	// the vector's own bytes, and s.enc holds only the rest.
	frame, err := encodeSnapshot(s.enc, snap, true)
	if err != nil {
		return 0, err
	}
	s.enc = frame.buf[:0]
	// Only a handle's first save lists the directory; after that its own
	// last version is where the search for a free one starts, and publish
	// steps over whatever other savers put there meanwhile.
	next := s.published + 1
	if s.published == 0 {
		versions, err := s.Versions()
		if err != nil {
			return 0, err
		}
		if len(versions) > 0 {
			next = versions[len(versions)-1] + 1
		}
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-"+filePrefix+"*")
	if err != nil {
		return 0, fmt.Errorf("store: create temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // drops the temp name; the published link survives
	if err := frame.writeTo(tmp); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("store: close snapshot: %w", err)
	}
	version, err := s.publish(tmp.Name(), next)
	if err != nil {
		return 0, err
	}
	// Best-effort directory sync so the publish itself is durable; some
	// filesystems reject fsync on directories, which is not fatal.
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	s.published = version
	return version, nil
}

// publishRetries bounds how many occupied versions publish will step over
// before giving up — far beyond any plausible save race, but finite so a
// pathological directory cannot loop forever.
const publishRetries = 4096

// publish links tmp into place as the first free version ≥ next. Unlike
// rename, os.Link refuses to replace an existing name, so a concurrent
// saver that won the race for a version cannot be clobbered — this saver
// simply steps to the next version and tries again. The temp file is left
// for the caller to remove (both names alias the same inode).
func (s *Store) publish(tmp string, next int) (int, error) {
	for try := 0; try < publishRetries; try++ {
		err := os.Link(tmp, filepath.Join(s.dir, fileFor(next)))
		if err == nil {
			return next, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return 0, fmt.Errorf("store: publish snapshot: %w", err)
		}
		next++
	}
	return 0, fmt.Errorf("store: publish snapshot: versions %d..%d all occupied", next-publishRetries, next-1)
}

// Open loads and decodes one specific version: one file, one decode. An
// incremental snapshot an older build wrote fails with
// ErrRetiredIncremental.
func (s *Store) Open(version int) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, fileFor(version)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: version %d in %s", ErrNotFound, version, s.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read version %d: %w", version, err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("store: version %d: %w", version, err)
	}
	return snap, nil
}

// Latest returns the newest decodable snapshot and its version, skipping
// torn or corrupt files (that is the crash-recovery contract: a kill mid-
// write falls back to the previous good snapshot). ErrNoCheckpoint is
// returned when nothing usable exists. An incremental snapshot is not
// skipped: it is an intact round this build cannot read, and falling back
// past it would resume from an older round without saying so, so Latest
// fails with ErrRetiredIncremental instead.
func (s *Store) Latest() (*Snapshot, int, error) {
	versions, err := s.Versions()
	if err != nil {
		return nil, 0, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		snap, err := s.Open(versions[i])
		if errors.Is(err, ErrRetiredIncremental) {
			return nil, 0, err
		}
		if err != nil {
			continue // torn or corrupt: fall back to the previous version
		}
		return snap, versions[i], nil
	}
	return nil, 0, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
}

// Resume is what a restarting process asks: the latest good snapshot, or
// (nil, 0, nil) when the store holds none and the run starts fresh. It
// fails with ErrRetiredIncremental where Latest does. When
// fingerprint is non-empty it must equal the snapshot's, otherwise the
// caller would be resuming someone else's federation and the result
// would silently diverge. The mismatch is ErrFingerprintMismatch, a
// typed error. A snapshot beyond the caller's round budget is refused
// where the state is consumed (fl.SimState.Validate).
func (s *Store) Resume(fingerprint string) (*Snapshot, int, error) {
	snap, version, err := s.Latest()
	if errors.Is(err, ErrNoCheckpoint) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if fingerprint != "" && snap.Meta.Fingerprint != fingerprint {
		return nil, 0, fmt.Errorf("%w: snapshot v%d has fingerprint %s, this configuration is %s",
			ErrFingerprintMismatch, version, snap.Meta.Fingerprint, fingerprint)
	}
	return snap, version, nil
}

// Entry is one snapshot's directory listing line.
type Entry struct {
	Version int
	Size    int64
	ModTime time.Time
	// Err is why the file does not decode, nil when it does: a torn or
	// corrupt file, or ErrRetiredIncremental. The fields below are zero
	// when it is set.
	Err    error
	Meta   Meta
	Round  int
	Params int
	Rounds int // history length
}

// List returns one Entry per on-disk version, ascending.
func (s *Store) List() ([]Entry, error) {
	versions, err := s.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(versions))
	for _, v := range versions {
		e, err := s.Stat(v)
		if err != nil {
			e.Err = err // removed since the directory was read
		}
		out = append(out, e)
	}
	return out, nil
}

// Stat reports one version's Entry without scanning the rest of the
// directory: one decode, the cheap path for tooling that labels a single
// snapshot.
func (s *Store) Stat(version int) (Entry, error) {
	e := Entry{Version: version}
	info, err := os.Stat(filepath.Join(s.dir, fileFor(version)))
	if err != nil {
		return e, fmt.Errorf("%w: version %d in %s", ErrNotFound, version, s.dir)
	}
	e.Size = info.Size()
	e.ModTime = info.ModTime()
	snap, err := s.Open(version)
	if err != nil {
		e.Err = err
		return e, nil
	}
	e.Meta = snap.Meta
	e.Round = snap.State.Round
	e.Params = len(snap.State.Global)
	e.Rounds = len(snap.State.History)
	return e, nil
}

// SaveHook adapts the store to the runtimes' OnCheckpoint signature
// (fl.SimConfig.OnCheckpoint / flnet.ServerConfig.OnCheckpoint): each call
// persists the delivered state under meta as the next version. It is the
// deferring hook: the call itself only hands the save to the round loop
// (fl.SimState.Defer), which runs it behind the next round and waits for
// it before the next checkpoint and before Run returns. onSaved, when
// non-nil, observes successful saves — CLI layers log from it. It fires
// once the version is durable, on the goroutine that saved it, which is
// not the round loop's.
func (s *Store) SaveHook(meta Meta, onSaved func(version int, state *fl.SimState)) func(*fl.SimState) error {
	return func(state *fl.SimState) error {
		return state.Defer(func() error {
			v, err := s.Save(&Snapshot{Meta: meta, State: *state})
			if err == nil && onSaved != nil {
				onSaved(v, state)
			}
			return err
		})
	}
}

// Fingerprint condenses run-defining configuration fields into a short
// stable hex digest for Meta.Fingerprint. Callers pass the fields that
// must match between the checkpointing process and the resuming one
// (method, setting, scale, seed, population and quorum knobs — not the
// round budget, which resume legitimately extends).
func Fingerprint(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x1f")))
	return hex.EncodeToString(h[:8])
}
