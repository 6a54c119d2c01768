// Package store is the compact columnar trajectory corpus under the
// engine: per-trajectory records with delta-encoded varint timestamps and
// fixed-point (or lossless) coordinates, packed into shard-local arena
// blocks, optionally made durable by a write-ahead log plus periodic
// snapshots (Open). The engine consumes it through the Corpus interface
// and decodes records on demand into its prepared-state caches, so a
// resident trajectory costs tens of bytes per sample instead of a boxed
// []model.Sample.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// Defaults of Options fields left zero.
const (
	DefaultShards     = 16
	DefaultBlockBytes = 128 << 10
	// DefaultSnapshotEvery is the WAL growth between automatic snapshots.
	DefaultSnapshotEvery = 64 << 20
	// DefaultFsyncInterval batches WAL fsyncs.
	DefaultFsyncInterval = 50 * time.Millisecond
)

// StepForSigma derives the default coordinate quantization step from the
// measure's location-noise sigma: nine orders of magnitude below the noise,
// so the quantization error is far outside anything the similarity measure
// can resolve (the goldens in internal/experiments pin the resulting score
// deviation at ≤1e-9 against lossless storage).
func StepForSigma(sigma float64) float64 {
	if !(sigma > 0) || math.IsInf(sigma, 0) {
		return 0
	}
	return sigma * 1e-9
}

// Options configures a Store.
type Options struct {
	// CoordStep is the fixed-point coordinate quantization step in meters
	// applied to newly encoded records; 0 stores coordinates losslessly.
	// Records embed their step, so it can change across restarts without
	// invalidating existing data. Choose a step well below the measure's
	// noise sigma (StepForSigma).
	CoordStep float64
	// Shards is the number of independently locked shards (0 selects
	// DefaultShards).
	Shards int
	// BlockBytes is the arena block size (0 selects DefaultBlockBytes).
	BlockBytes int
	// FsyncInterval batches WAL fsyncs: positive syncs at most that often
	// from a background loop, 0 selects DefaultFsyncInterval, and negative
	// never syncs explicitly (the OS decides). Use ExactFsync for
	// per-record durability. Only meaningful with Open.
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic snapshot once the WAL has grown
	// by this many bytes (0 selects DefaultSnapshotEvery, negative disables
	// automatic snapshots). Only meaningful with Open.
	SnapshotEvery int64
	// Logger reports recovery and background-snapshot events (nil selects
	// slog.Default).
	Logger *slog.Logger
	// DisableSidecar turns off the derived-state sidecar (profiles.snap):
	// neither written during snapshots nor loaded during recovery. The
	// default (zero) keeps warm restarts on. Only meaningful with Open.
	DisableSidecar bool
}

// ExactFsync as Options.FsyncInterval syncs the WAL after every record.
const ExactFsync = time.Duration(1)

// ErrClosed reports a mutation against a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNotFound reports a lookup of an unknown trajectory ID.
var ErrNotFound = errors.New("store: trajectory not found")

// Ref is a handle to one immutable encoded record. It embeds the record
// bytes, so decoding never consults mutable store state: a query holding a
// Ref snapshot observes the trajectory as of the snapshot even if the store
// mutates underneath. Gen is a store-wide monotone generation, unique per
// (re)encoded record and never zero — {ID, Gen} identifies a record version
// across the engine's derived-state caches.
type Ref struct {
	ID   string
	Gen  uint64
	N    int
	blob []byte
}

// IsZero reports whether r is the zero Ref.
func (r Ref) IsZero() bool { return r.Gen == 0 }

// EncodedBytes returns the size of the encoded record.
func (r Ref) EncodedBytes() int { return len(r.blob) }

// FirstTime returns the record's first (oldest) timestamp without
// decoding it — a handful of header bytes. Retention sweeps use it to
// skip trajectories whose head is already past the cutoff.
func (r Ref) FirstTime() (float64, error) {
	return recordFirstTime(r.blob)
}

// Decode materializes the record into a freshly allocated trajectory.
func (r Ref) Decode() (model.Trajectory, error) {
	samples, err := decodeInto(r.blob, nil)
	if err != nil {
		return model.Trajectory{}, fmt.Errorf("store: decode %q: %w", r.ID, err)
	}
	return model.Trajectory{ID: r.ID, Samples: samples}, nil
}

// Corpus is the engine-facing contract of a Store: corpus mutation, the
// record handles (Refs) that mutations and ForEach return, and
// observability. It has no by-ID decode: the engine decodes the Refs it
// holds, through its own record cache. *Store implements it.
type Corpus interface {
	Add(tr model.Trajectory) (Ref, error)
	Replace(tr model.Trajectory) (Ref, error)
	Append(id string, tail []model.Sample) (Ref, error)
	Remove(id string) error
	Len() int
	IDs() []string
	ForEach(fn func(Ref) error) error
	Bounds() (geo.Rect, bool)
	Stats() Stats
	Recovery() (RecoveryInfo, bool)
	Close() error
}

// Stats is a point-in-time snapshot of the store's footprint and
// persistence counters.
type Stats struct {
	// Records is the number of resident trajectories.
	Records int
	// LiveBytes is the sum of live encoded-record sizes.
	LiveBytes int64
	// ArenaBytes is the capacity of every arena block still referenced by
	// at least one live record (or open for appending) — the store's
	// resident footprint including dead record slack awaiting GC.
	ArenaBytes int64
	// CoordStep is the quantization step applied to new records (0 =
	// lossless).
	CoordStep float64
	// Persistent reports whether the store was opened on a data directory.
	Persistent bool
	// WALBytes is the current WAL segment's size; WALSeq its sequence
	// number. Zero on in-memory stores.
	WALBytes int64
	WALSeq   uint64
	// Snapshots and SnapshotErrors count snapshot attempts since open.
	Snapshots      uint64
	SnapshotErrors uint64
	// RecoverySeconds is the duration of the Open-time recovery (0 for
	// in-memory stores).
	RecoverySeconds float64
	// WarmProfiles is the number of derived-state sidecar entries
	// revalidated during recovery; WarmSeconds the sidecar load's duration.
	WarmProfiles int
	WarmSeconds  float64
	// SidecarWrites and SidecarErrors count sidecar write attempts since
	// open.
	SidecarWrites uint64
	SidecarErrors uint64
}

// block is one arena allocation; records are immutable subslices of buf.
// Blocks are never compacted: once live drops to zero (and the block is no
// longer the shard's append target) the accounting releases it and the GC
// reclaims it when the last snapshot Ref dies.
type block struct {
	buf  []byte
	live int
}

// rec is one resident record.
type rec struct {
	ref Ref
	blk *block
}

// shard is one independently locked slice of the store.
type shard struct {
	mu       sync.Mutex
	recs     map[string]*rec
	cur      *block
	scratch  []byte
	scratch2 []byte // second encode buffer for append frames
}

// Store is a sharded columnar trajectory corpus. All methods are safe for
// concurrent use.
type Store struct {
	blockBytes int
	coordStep  atomic.Uint64 // float64 bits
	gen        atomic.Uint64
	count      atomic.Int64
	liveBytes  atomic.Int64
	arenaBytes atomic.Int64
	shards     []shard
	log        *slog.Logger

	pers     *persistence // nil on in-memory stores
	snapMu   sync.Mutex   // serializes snapshots and Close
	snapping atomic.Bool
	recovery *RecoveryInfo

	// Derived-state sidecar plumbing (see sidecar.go).
	sidecarOff bool
	sideMu     sync.Mutex
	sideSrc    func() []SidecarEntry
	warm       []SidecarEntry
}

// New builds an in-memory store (no durability). See Open for a persistent
// one.
func New(opts Options) *Store {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = DefaultBlockBytes
	}
	s := &Store{
		blockBytes: opts.BlockBytes,
		shards:     make([]shard, opts.Shards),
		log:        opts.Logger,
		sidecarOff: opts.DisableSidecar,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	for i := range s.shards {
		s.shards[i].recs = make(map[string]*rec)
	}
	s.SetCoordStep(opts.CoordStep)
	return s
}

// SetCoordStep changes the quantization step applied to records encoded
// from now on (existing records are self-describing and unaffected).
// Steps that are not positive finite numbers select lossless storage.
func (s *Store) SetCoordStep(step float64) {
	if !(step > 0) || math.IsInf(step, 0) {
		step = 0
	}
	s.coordStep.Store(math.Float64bits(step))
}

// CoordStep returns the step applied to newly encoded records.
func (s *Store) CoordStep() float64 {
	return math.Float64frombits(s.coordStep.Load())
}

func (s *Store) shardOf(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// Add encodes and stores tr; the ID must not be resident yet.
func (s *Store) Add(tr model.Trajectory) (Ref, error) {
	return s.put(tr, opAdd, false)
}

// Replace encodes and stores tr, superseding any resident record with the
// same ID.
func (s *Store) Replace(tr model.Trajectory) (Ref, error) {
	return s.put(tr, opReplace, true)
}

func (s *Store) put(tr model.Trajectory, op byte, allowExisting bool) (Ref, error) {
	if tr.ID == "" {
		return Ref{}, errors.New("store: trajectory needs a non-empty ID")
	}
	if len(tr.Samples) == 0 {
		return Ref{}, fmt.Errorf("store: trajectory %q has no samples", tr.ID)
	}
	sh := s.shardOf(tr.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, exists := sh.recs[tr.ID]
	if exists && !allowExisting {
		return Ref{}, fmt.Errorf("store: trajectory %q already present", tr.ID)
	}
	sh.scratch = appendRecord(sh.scratch[:0], tr.Samples, s.CoordStep())
	// WAL first: a failed append leaves the store unchanged.
	if s.pers != nil {
		trigger, err := s.pers.append(op, tr.ID, sh.scratch)
		if err != nil {
			return Ref{}, err
		}
		if trigger {
			s.triggerSnapshot()
		}
	}
	ref := Ref{ID: tr.ID, Gen: s.gen.Add(1), N: len(tr.Samples)}
	s.placeLocked(sh, &ref, sh.scratch)
	if exists {
		s.dropLocked(sh, old)
	} else {
		s.count.Add(1)
	}
	sh.recs[tr.ID] = &rec{ref: ref, blk: sh.cur}
	s.liveBytes.Add(int64(len(ref.blob)))
	return ref, nil
}

// placeLocked copies the encoded record into the shard's arena and points
// ref.blob at the copy. Caller holds sh.mu.
func (s *Store) placeLocked(sh *shard, ref *Ref, encoded []byte) {
	need := len(encoded)
	if sh.cur == nil || cap(sh.cur.buf)-len(sh.cur.buf) < need {
		if sh.cur != nil && sh.cur.live == 0 {
			// The sealed block holds only dead records; release it.
			s.arenaBytes.Add(-int64(cap(sh.cur.buf)))
		}
		size := s.blockBytes
		if need > size {
			size = need
		}
		sh.cur = &block{buf: make([]byte, 0, size)}
		s.arenaBytes.Add(int64(size))
	}
	off := len(sh.cur.buf)
	sh.cur.buf = append(sh.cur.buf, encoded...)
	ref.blob = sh.cur.buf[off:len(sh.cur.buf):len(sh.cur.buf)]
	sh.cur.live++
}

// dropLocked releases one record's accounting. Caller holds sh.mu and
// removes or overwrites the map entry itself.
func (s *Store) dropLocked(sh *shard, r *rec) {
	s.liveBytes.Add(-int64(len(r.ref.blob)))
	r.blk.live--
	if r.blk.live == 0 && r.blk != sh.cur {
		s.arenaBytes.Add(-int64(cap(r.blk.buf)))
	}
}

// Append extends the resident record for id with a tail of samples, which
// must be finite, time-ordered, and strictly after the record's last
// timestamp. The WAL carries only the encoded tail plus the expected prior
// sample count (so replay over a snapshot that already contains the append
// is a no-op); the in-memory record is re-encoded in full under a fresh
// generation, exactly as Replace would produce it.
func (s *Store) Append(id string, tail []model.Sample) (Ref, error) {
	if id == "" {
		return Ref{}, errors.New("store: trajectory needs a non-empty ID")
	}
	if len(tail) == 0 {
		return Ref{}, fmt.Errorf("store: append to %q has no samples", id)
	}
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.recs[id]
	if !ok {
		return Ref{}, fmt.Errorf("store: trajectory %q: %w", id, ErrNotFound)
	}
	oldN := old.ref.N
	buf := make([]model.Sample, oldN+len(tail))
	base, err := decodeInto(old.ref.blob, buf[:oldN])
	if err != nil {
		return Ref{}, fmt.Errorf("store: decode %q: %w", id, err)
	}
	prevT := base[oldN-1].T
	for i, smp := range tail {
		if !smp.Loc.IsFinite() || math.IsNaN(smp.T) || math.IsInf(smp.T, 0) {
			return Ref{}, fmt.Errorf("store: append to %q: %w (sample %d)", id, model.ErrNonFinite, i)
		}
		if !(smp.T > prevT) {
			cause := model.ErrUnsorted
			if smp.T == prevT {
				cause = model.ErrDuplicate
			}
			return Ref{}, fmt.Errorf("store: append to %q: %w (sample %d at t=%v, last t=%v)", id, cause, i, smp.T, prevT)
		}
		prevT = smp.T
	}
	merged := append(base, tail...)
	step := s.CoordStep()
	// WAL first: only the delta is logged. A failed append leaves the store
	// unchanged.
	if s.pers != nil {
		sh.scratch = appendRecord(sh.scratch[:0], tail, step)
		sh.scratch2 = appendAppendBlob(sh.scratch2[:0], oldN, sh.scratch)
		trigger, err := s.pers.append(opAppend, id, sh.scratch2)
		if err != nil {
			return Ref{}, err
		}
		if trigger {
			s.triggerSnapshot()
		}
	}
	sh.scratch = appendRecord(sh.scratch[:0], merged, step)
	ref := Ref{ID: id, Gen: s.gen.Add(1), N: len(merged)}
	s.placeLocked(sh, &ref, sh.scratch)
	s.dropLocked(sh, old)
	sh.recs[id] = &rec{ref: ref, blk: sh.cur}
	s.liveBytes.Add(int64(len(ref.blob)))
	return ref, nil
}

// Remove deletes the record with the given ID.
func (s *Store) Remove(id string) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.recs[id]
	if !ok {
		return fmt.Errorf("store: trajectory %q: %w", id, ErrNotFound)
	}
	if s.pers != nil {
		trigger, err := s.pers.append(opRemove, id, nil)
		if err != nil {
			return err
		}
		if trigger {
			s.triggerSnapshot()
		}
	}
	delete(sh.recs, id)
	s.dropLocked(sh, r)
	s.count.Add(-1)
	return nil
}

// applyReplay applies one recovered WAL or snapshot record, bypassing the
// WAL. Add and Replace both upsert — snapshot capture is concurrent with
// WAL appends, so replay must be idempotent.
func (s *Store) applyReplay(op byte, id string, blob []byte) error {
	switch op {
	case opAdd, opReplace:
		n, err := recordCount(blob)
		if err != nil {
			return err
		}
		sh := s.shardOf(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		ref := Ref{ID: id, Gen: s.gen.Add(1), N: n}
		s.placeLocked(sh, &ref, blob)
		if old, ok := sh.recs[id]; ok {
			s.dropLocked(sh, old)
		} else {
			s.count.Add(1)
		}
		sh.recs[id] = &rec{ref: ref, blk: sh.cur}
		s.liveBytes.Add(int64(len(ref.blob)))
		return nil
	case opRemove:
		sh := s.shardOf(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if r, ok := sh.recs[id]; ok {
			delete(sh.recs, id)
			s.dropLocked(sh, r)
			s.count.Add(-1)
		}
		return nil
	case opAppend:
		oldN, tailRec, err := splitAppendBlob(blob)
		if err != nil {
			return err
		}
		tailN, err := recordCount(tailRec)
		if err != nil {
			return err
		}
		sh := s.shardOf(id)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		r, ok := sh.recs[id]
		if !ok || r.ref.N != oldN {
			// The append is already reflected in the state replay started
			// from (snapshot capture is concurrent with WAL writes), or a
			// later frame supersedes this record. Skipping is the idempotent
			// move either way.
			return nil
		}
		buf := make([]model.Sample, oldN+tailN)
		if _, err := decodeInto(r.ref.blob, buf[:oldN]); err != nil {
			return err
		}
		if _, err := decodeInto(tailRec, buf[oldN:]); err != nil {
			return err
		}
		// Re-encode with the tail's embedded step — the store step active
		// when the append was logged — so the rebuilt record matches what
		// the live path produced.
		step, err := recordStep(tailRec)
		if err != nil {
			return err
		}
		sh.scratch = appendRecord(sh.scratch[:0], buf, step)
		ref := Ref{ID: id, Gen: s.gen.Add(1), N: len(buf)}
		s.placeLocked(sh, &ref, sh.scratch)
		s.dropLocked(sh, r)
		sh.recs[id] = &rec{ref: ref, blk: sh.cur}
		s.liveBytes.Add(int64(len(ref.blob)))
		return nil
	default:
		return fmt.Errorf("%w: unknown op %d", ErrCorrupt, op)
	}
}

// Resolve returns the resident record handle for id.
func (s *Store) Resolve(id string) (Ref, bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r, ok := sh.recs[id]; ok {
		return r.ref, true
	}
	return Ref{}, false
}

// Get decodes the resident trajectory with the given ID into a freshly
// allocated array: Resolve plus Ref.Decode. The engine does not call it;
// it decodes the Refs it holds through its own record cache.
func (s *Store) Get(id string) (model.Trajectory, bool) {
	ref, ok := s.Resolve(id)
	if !ok {
		return model.Trajectory{}, false
	}
	tr, err := ref.Decode()
	if err != nil {
		return model.Trajectory{}, false
	}
	return tr, true
}

// Len returns the number of resident trajectories.
func (s *Store) Len() int { return int(s.count.Load()) }

// IDs returns the resident trajectory IDs, sorted.
func (s *Store) IDs() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.recs {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// ForEach calls fn with every resident record's Ref. Refs are captured
// shard by shard before fn runs, so fn may call back into the store.
func (s *Store) ForEach(fn func(Ref) error) error {
	for _, ref := range s.refs() {
		if err := fn(ref); err != nil {
			return err
		}
	}
	return nil
}

// refs snapshots every resident Ref, sorted by ID.
func (s *Store) refs() []Ref {
	out := make([]Ref, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, r := range sh.recs {
			out = append(out, r.ref)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Bounds returns the spatial bounding rectangle of the resident corpus
// (ok=false when empty). It decodes record coordinate columns into one
// reused scratch buffer — cheap enough for boot-time scale derivation.
func (s *Store) Bounds() (geo.Rect, bool) {
	var (
		bounds  geo.Rect
		any     bool
		scratch []model.Sample
	)
	for _, ref := range s.refs() {
		r, sc, err := recordBounds(ref.blob, scratch)
		scratch = sc
		if err != nil {
			continue // unreachable for records the store encoded
		}
		if !any {
			bounds, any = r, true
		} else {
			bounds = bounds.Union(r)
		}
	}
	return bounds, any
}

// Stats returns a point-in-time footprint and persistence snapshot.
func (s *Store) Stats() Stats {
	st := Stats{
		Records:    s.Len(),
		LiveBytes:  s.liveBytes.Load(),
		ArenaBytes: s.arenaBytes.Load(),
		CoordStep:  s.CoordStep(),
	}
	if s.pers != nil {
		st.Persistent = true
		st.WALBytes, st.WALSeq = s.pers.walStats()
		st.Snapshots = s.pers.snapshots.Load()
		st.SnapshotErrors = s.pers.snapErrs.Load()
		st.SidecarWrites = s.pers.sidecarWrites.Load()
		st.SidecarErrors = s.pers.sidecarErrs.Load()
	}
	if s.recovery != nil {
		st.RecoverySeconds = s.recovery.Duration.Seconds()
		st.WarmProfiles = s.recovery.WarmProfiles
		st.WarmSeconds = s.recovery.WarmDuration.Seconds()
	}
	return st
}

// Recovery returns the Open-time recovery report (ok=false for in-memory
// stores).
func (s *Store) Recovery() (RecoveryInfo, bool) {
	if s.recovery == nil {
		return RecoveryInfo{}, false
	}
	return *s.recovery, true
}

// Close flushes and closes the WAL; further mutations fail with ErrClosed.
// In-memory stores close trivially.
func (s *Store) Close() error {
	if s.pers == nil {
		return nil
	}
	s.snapMu.Lock() // waits out an in-flight snapshot
	defer s.snapMu.Unlock()
	return s.pers.close()
}
