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
	"calibre/internal/param"
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
// their own version instead of clobbering each other.
//
// With SetIncremental(true), Save encodes each snapshot's global vector
// as a lossless XOR-delta against the previous version instead of in
// full, bounding the chain at deltaChainLimit links (and falling back to
// a full snapshot whenever no usable reference exists), so checkpoint
// storage scales with per-round drift rather than model size. Open
// resolves delta chains transparently and bit-exactly; Latest still skips
// anything unreadable, including incrementals whose chain is broken.
type Store struct {
	dir string

	// mu serializes this handle's saves (other handles and processes are
	// kept apart by publish) and guards everything below.
	mu          sync.Mutex
	incremental bool
	// published is the highest version this handle has written: the next
	// save starts publishing right above it instead of listing the
	// directory. 0 until the first save, which lists once.
	published int
	// last caches the most recently saved version's resolved global (and
	// its chain depth), so steady-state incremental saves need no disk
	// reads to find their reference.
	last *saveRef
	// diff and enc are the delta encoder's and the frame encoder's buffers,
	// kept between saves.
	diff param.Delta
	enc  []byte
}

// saveRef is a candidate reference for the next incremental save.
type saveRef struct {
	version int
	global  param.Vector
	depth   int
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
	v := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
		if v > 1<<31 {
			return 0, false
		}
	}
	if v < 1 {
		return 0, false
	}
	return v, true
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

// deltaChainLimit bounds how many incremental snapshots may chain off one
// full snapshot before Save writes the next full one: resolving a version
// reads at most this many reference files, and a single damaged full
// snapshot can strand at most this many incrementals.
const deltaChainLimit = 8

// SetIncremental toggles incremental encoding for subsequent Saves (see
// the Store doc). Decoding is unaffected: any Store reads both snapshot
// flavors. Turning it off simply makes every later Save a full snapshot.
func (s *Store) SetIncremental(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.incremental = on
}

// pickReference chooses the reference for an incremental save, or nil
// when the next save must be full: incremental encoding off, no usable
// previous version, a dimension change, or a chain already at its limit.
// The caller holds s.mu.
func (s *Store) pickReference(next *Snapshot) *saveRef {
	if !s.incremental {
		return nil
	}
	ref := s.last
	if ref == nil {
		// Cold start (fresh handle over an existing directory): anchor the
		// chain on the newest resolvable snapshot.
		snap, v, err := s.Latest()
		if err != nil {
			return nil
		}
		depth, err := s.chainDepth(v)
		if err != nil {
			return nil
		}
		ref = &saveRef{version: v, global: param.Vector(snap.State.Global), depth: depth}
	}
	if ref.depth+1 > deltaChainLimit || len(ref.global) != len(next.State.Global) {
		return nil
	}
	return ref
}

// Save encodes snap and writes it as the next version. The write is
// atomic and never replaces an existing file: the blob lands in a temp
// file in the same directory, is synced, and is then published under the
// next free version with a no-replace primitive (see publish). Under
// SetIncremental the blob is a delta against the previous version
// whenever a usable reference exists (full-snapshot fallback otherwise).
// When Save returns the version is durable; snap stays the caller's.
func (s *Store) Save(snap *Snapshot) (int, error) {
	return s.save(snap, false)
}

// save is Save. keep says the caller gives up snap's global vector —
// nothing will write to it again — so the store may hold on to it as the
// next incremental save's reference instead of copying it.
func (s *Store) save(snap *Snapshot, keep bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var data []byte
	depth := 0 // chain depth of the blob being written
	if ref := s.pickReference(snap); ref != nil {
		if data = s.encodeIncremental(snap, ref); data != nil {
			depth = ref.depth + 1
		}
	}
	if data == nil {
		var err error
		if data, err = encodeSnapshot(s.enc, snap); err != nil {
			return 0, err
		}
	}
	s.enc = data[:0]
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
	if _, err := tmp.Write(data); err != nil {
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
	// Remember what just landed so the next incremental save can reference
	// it without touching the disk. Save's caller may do anything with its
	// state afterwards, so the cache takes a copy unless the caller gave
	// the vector up; when incremental encoding is off the cache would never
	// be read, so skip the model-sized clone entirely (SetIncremental(true)
	// later simply cold-starts from Latest).
	if s.incremental {
		global := param.Vector(snap.State.Global)
		if !keep {
			global = global.Clone()
		}
		s.last = &saveRef{version: version, global: global, depth: depth}
	}
	return version, nil
}

// encodeIncremental encodes snap as a delta against ref, or returns nil
// when the full snapshot is what should be written: the delta is kept only
// when it is actually smaller — a global that shifted substantially can
// XOR to high-entropy words whose varint form exceeds 8 bytes per element,
// and a delta that beats no storage would still add chain-resolution cost
// and fragility. This mirrors the wire path's dense fallback: worst-case
// storage is full-snapshot parity. Which blob is smaller follows from the
// delta's size alone, so only the winner is ever encoded. The caller holds
// s.mu.
func (s *Store) encodeIncremental(snap *Snapshot, ref *saveRef) []byte {
	d := &s.diff
	global := param.Vector(snap.State.Global)
	if err := param.DiffInto(d, ref.global, global); err != nil || deltaStateSize(d) >= fullStateSize(len(global)) {
		return nil
	}
	data, err := encodeSnapshotDelta(s.enc, snap, ref.version, d)
	if err != nil {
		return nil // the full encode reports it
	}
	return data
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

// readVersion loads one on-disk version without resolving delta chains.
func (s *Store) readVersion(version int) (*Snapshot, *deltaRef, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, fileFor(version)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: version %d in %s", ErrNotFound, version, s.dir)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: read version %d: %w", version, err)
	}
	snap, ref, err := decodeSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: version %d: %w", version, err)
	}
	return snap, ref, nil
}

// Open loads and decodes one specific version, resolving incremental
// snapshots through their reference chain: each link's XOR-delta is
// applied to the resolved global of the version it references, so the
// returned state is bit-identical to what was saved, however deep the
// chain. A missing or corrupt link anywhere in the chain fails the whole
// resolution (Latest then falls back to an older version).
func (s *Store) Open(version int) (*Snapshot, error) {
	snap, _, err := s.openResolved(version, 0)
	return snap, err
}

// maxResolveDepth is a hard backstop on reference-chain recursion, far
// beyond deltaChainLimit: encode always bounds chains, but the decoder
// must also terminate on directories written by arbitrary producers.
const maxResolveDepth = 1024

// openResolved resolves one version and reports the chain depth below it
// (0 for a full snapshot), so callers needing both pay one chain walk.
func (s *Store) openResolved(version, depth int) (*Snapshot, int, error) {
	if depth > maxResolveDepth {
		return nil, 0, fmt.Errorf("%w: version %d: reference chain deeper than %d", ErrMalformed, version, maxResolveDepth)
	}
	snap, ref, err := s.readVersion(version)
	if err != nil {
		return nil, 0, err
	}
	if ref == nil {
		return snap, 0, nil
	}
	if ref.refVersion >= version {
		// Back-references only: forward or self references could loop and
		// can never occur in an encoder-produced directory.
		return nil, 0, fmt.Errorf("%w: version %d references non-earlier version %d", ErrMalformed, version, ref.refVersion)
	}
	base, baseDepth, err := s.openResolved(ref.refVersion, depth+1)
	if err != nil {
		return nil, 0, fmt.Errorf("store: version %d: resolve reference: %w", version, err)
	}
	global, err := ref.delta.Apply(param.Vector(base.State.Global))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: version %d vs v%d: %v", ErrMalformed, version, ref.refVersion, err)
	}
	snap.State.Global = global
	return snap, baseDepth + 1, nil
}

// chainDepth reports how many reference links sit under version (0 for a
// full snapshot).
func (s *Store) chainDepth(version int) (int, error) {
	depth := 0
	for {
		_, ref, err := s.readVersion(version)
		if err != nil {
			return 0, err
		}
		if ref == nil {
			return depth, nil
		}
		if ref.refVersion >= version {
			return 0, fmt.Errorf("%w: version %d references non-earlier version %d", ErrMalformed, version, ref.refVersion)
		}
		version = ref.refVersion
		depth++
		if depth > maxResolveDepth {
			return 0, fmt.Errorf("%w: reference chain deeper than %d", ErrMalformed, maxResolveDepth)
		}
	}
}

// Latest returns the newest decodable snapshot and its version, skipping
// torn or corrupt files (that is the crash-recovery contract: a kill mid-
// write falls back to the previous good snapshot). ErrNoCheckpoint is
// returned when nothing usable exists.
func (s *Store) Latest() (*Snapshot, int, error) {
	versions, err := s.Versions()
	if err != nil {
		return nil, 0, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		snap, err := s.Open(versions[i])
		if err != nil {
			continue // torn or corrupt: fall back to the previous version
		}
		return snap, versions[i], nil
	}
	return nil, 0, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
}

// Resume is what a restarting process asks: the latest good snapshot, or
// (nil, 0, nil) when the store holds none and the run starts fresh. When
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
	// Corrupt marks files that fail to decode (or incrementals whose
	// reference chain is broken); the remaining fields besides
	// Version/Size/ModTime — and Incremental/RefVersion, which come from
	// the file itself — are zero for them.
	Corrupt bool
	Meta    Meta
	Round   int
	Params  int
	Rounds  int // history length
	// Incremental marks delta-encoded snapshots; RefVersion is the version
	// the delta references and ChainDepth how many links separate this
	// snapshot from its underlying full one (0 for full snapshots).
	Incremental bool
	RefVersion  int
	ChainDepth  int
}

// List returns one Entry per on-disk version, ascending.
func (s *Store) List() ([]Entry, error) {
	versions, err := s.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(versions))
	refOf := make(map[int]int)
	for _, v := range versions {
		e := Entry{Version: v}
		if info, err := os.Stat(filepath.Join(s.dir, fileFor(v))); err == nil {
			e.Size = info.Size()
			e.ModTime = info.ModTime()
		}
		// One decode per full snapshot; incrementals additionally resolve
		// their (bounded) reference chain for the state-derived fields.
		snap, ref, err := s.readVersion(v)
		if err == nil && ref != nil {
			e.Incremental = true
			e.RefVersion = ref.refVersion
			refOf[v] = ref.refVersion
			snap, err = s.Open(v)
		}
		if err != nil {
			e.Corrupt = true
		} else {
			e.Meta = snap.Meta
			e.Round = snap.State.Round
			e.Params = len(snap.State.Global)
			e.Rounds = len(snap.State.History)
		}
		out = append(out, e)
	}
	for i := range out {
		v, depth := out[i].Version, 0
		for depth <= len(versions) {
			r, ok := refOf[v]
			if !ok {
				break
			}
			v, depth = r, depth+1
		}
		out[i].ChainDepth = depth
	}
	return out, nil
}

// Stat reports one version's Entry without scanning or resolving the rest
// of the directory (one decode, plus the reference-chain walk for
// incremental snapshots) — the cheap path for tooling that labels a
// single snapshot.
func (s *Store) Stat(version int) (Entry, error) {
	e := Entry{Version: version}
	info, err := os.Stat(filepath.Join(s.dir, fileFor(version)))
	if err != nil {
		return e, fmt.Errorf("%w: version %d in %s", ErrNotFound, version, s.dir)
	}
	e.Size = info.Size()
	e.ModTime = info.ModTime()
	snap, ref, err := s.readVersion(version)
	if err == nil && ref != nil {
		e.Incremental = true
		e.RefVersion = ref.refVersion
		// One pass resolves the state and measures the chain.
		snap, e.ChainDepth, err = s.openResolved(version, 0)
	}
	if err != nil {
		e.Corrupt = true
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
			// The delivered state is an immutable view, so its global can
			// serve as the next save's delta reference as is.
			v, err := s.save(&Snapshot{Meta: meta, State: *state}, true)
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
