// Package engine is the execution layer under scoring, matching, linking,
// and top-k search: one long-lived owner for prepared-trajectory state and
// one cancellable worker-pool executor, shared by every entry point that
// previously hand-rolled its own goroutine fan-out.
//
// An Engine binds a similarity scorer (typically STS, via core.Measure) to
// a mutable Corpus of trajectories. It owns
//
//   - the prepared-trajectory lifecycle: a size-bounded LRU cache of
//     core.Prepared with hit/miss/eviction counters and single-flight
//     preparation under concurrency;
//   - corpus mutation (Add/Remove/Replace/Append/TrimBefore) through the
//     columnar store, with generation-scoped invalidation of derived state;
//   - the single executor (ForEach) through which all parallel work runs,
//     with context cancellation and deadline propagation.
//
// The eval and linking packages re-express their entry points as
// thin views over this package, so a server can hold one Engine per corpus
// and serve continuous top-k / join queries without re-preparing
// trajectories per request.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// Scorer assigns a similarity score to a pair of trajectories; higher is
// more similar. It is structurally identical to eval.Scorer (this package
// sits below eval, so it declares its own copy; any eval.Scorer value
// satisfies it).
type Scorer interface {
	Name() string
	Score(a, b model.Trajectory) (float64, error)
}

// MeasureScorer is a Scorer backed by a core.Measure. Engines detect it to
// route scoring through the prepared-trajectory cache and
// core.Measure.SimilarityPrepared instead of pairwise Score calls.
// eval.STSScorer implements it.
type MeasureScorer interface {
	Scorer
	Measure() *core.Measure
}

// ProfileScorer is a MeasureScorer that asks for the bucketed-profile
// approximation: when ProfileOptions returns non-nil, engines score its
// pairs with core.SimilarityProfiled over cached per-trajectory profiles
// instead of the exact SimilarityPrepared. eval.STSScorer implements it
// (returning nil unless built profiled). Options.Profile on the engine
// takes precedence when set.
type ProfileScorer interface {
	MeasureScorer
	ProfileOptions() *core.ProfileOptions
}

// DefaultCacheSize bounds the prepared-trajectory LRU when Options.
// CacheSize is zero.
const DefaultCacheSize = 4096

// Options configures an Engine.
type Options struct {
	// Workers bounds scoring parallelism (0 selects GOMAXPROCS).
	Workers int
	// CacheSize bounds the prepared-trajectory LRU cache (0 selects
	// DefaultCacheSize; negative means unbounded).
	CacheSize int
	// Profile, when set, switches measure-backed scoring to the bucketed
	// S-T profile approximation: each trajectory's sparse profile is built
	// once (cached in a second LRU alongside the prepared state) and pair
	// scoring becomes a sparse dot-product merge. When nil, the scorer's
	// own ProfileOptions (if it is a ProfileScorer) apply; when both are
	// nil, scoring stays exact. Requires a MeasureScorer.
	Profile *core.ProfileOptions
	// DisablePruning forces TopK and MinScore-thresholded queries down the
	// exhaustive path even when the engine could filter-and-refine.
	// Benchmarks and equivalence tests use it to pin the exhaustive
	// baseline; production engines leave it false.
	DisablePruning bool
	// Corpus is the columnar trajectory store backing the engine (nil
	// selects a fresh lossless in-memory store.New). The engine takes
	// ownership: a recovered store's content is loaded into the corpus at
	// construction, all mutations write through it (reaching its WAL when
	// persistent), and Engine.Close closes it. Callers must not mutate a
	// Corpus behind the engine's back.
	Corpus store.Corpus
}

// Match is one result of Engine.TopK.
type Match struct {
	// ID is the corpus trajectory's ID, Slot its corpus slot.
	ID   string
	Slot int
	// Score is its similarity to the query.
	Score float64
}

// Engine binds a scorer to a corpus. All methods are safe for concurrent
// use; queries observe a consistent snapshot of the corpus taken when they
// start.
type Engine struct {
	scorer   Scorer
	measure  *core.Measure // non-nil when scorer is a MeasureScorer
	workers  int
	cache    *lruCache[*core.Prepared]
	profOpts *core.ProfileOptions // non-nil switches scoring to profiles
	profiles *lruCache[*core.Profile]
	// boundOpts builds every cached profile (see setBoundOpts): the scoring
	// profile options with bound state when profiled; otherwise
	// core.DefaultProfileBucketSeconds and bound-only. profiles is
	// populated whenever pruning or profiled scoring needs it; noPrune pins
	// every query exhaustive.
	boundOpts core.ProfileOptions
	noPrune   bool
	pstats    pruneCounters

	// corpus is the columnar record store — the single source of truth for
	// trajectory content. slots/byID only map store records to the dense
	// slot numbers queries snapshot and tie-break by; they never hold
	// samples. All engine mutations hold e.mu, so corpus and slots always
	// agree.
	corpus store.Corpus
	mu     sync.RWMutex
	slots  []corpusSlot
	byID   map[string]int
	free   []int

	// records holds the arrays Get and Subset hand out, one per record,
	// so repeated by-ID lookups share one decode and each handed-out
	// array resolves under its record's refKey (keyFor). The mutations
	// that forget a record's derived state drop its entry too.
	records recordCache

	// warmProfiles counts profiles installed from the store's derived-
	// state sidecar at construction — the engine started scoring-warm,
	// not just data-warm.
	warmProfiles int
}

// corpusSlot holds one corpus entry's record handle; freed slots are
// reused by Add so the slot table stays dense. minT caches the record's
// first (minimum) timestamp, read from the encoded header without a
// full decode, so a retention sweep skips unexpired trajectories in
// O(1) per slot. Append never lowers a record's first timestamp, so
// minT stays valid across appends; Replace and trim recompute it.
type corpusSlot struct {
	ref  store.Ref
	used bool
	minT float64
}

// slotMinT reads a record's first timestamp without decoding its
// samples. A header parse error degrades to -Inf: the sweep then
// decodes that record and surfaces the real error there, so corrupt
// data is never silently retained.
func slotMinT(ref store.Ref) float64 {
	t, err := ref.FirstTime()
	if err != nil {
		return math.Inf(-1)
	}
	return t
}

// New builds an Engine. The scorer is required; a MeasureScorer enables
// the prepared cache and the zero-allocation prepared scoring path.
func New(scorer Scorer, opts Options) (*Engine, error) {
	if scorer == nil {
		return nil, errors.New("engine: scorer is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capacity := opts.CacheSize
	switch {
	case capacity == 0:
		capacity = DefaultCacheSize
	case capacity < 0:
		capacity = 0 // unbounded
	}
	corpus := opts.Corpus
	if corpus == nil {
		corpus = store.New(store.Options{})
	}
	e := &Engine{
		scorer:  scorer,
		workers: workers,
		cache:   newLRUCache(capacity, (*core.Prepared).MemoryBytes),
		corpus:  corpus,
		byID:    make(map[string]int),
	}
	if ms, ok := scorer.(MeasureScorer); ok {
		e.measure = ms.Measure()
	}
	e.profOpts = opts.Profile
	if e.profOpts == nil {
		if ps, ok := scorer.(ProfileScorer); ok {
			e.profOpts = ps.ProfileOptions()
		}
	}
	if e.profOpts != nil && e.measure == nil {
		return nil, errors.New("engine: Options.Profile requires a measure-backed scorer")
	}
	e.noPrune = opts.DisablePruning
	e.setBoundOpts(true)
	// The profile cache backs both profiled scoring and the bound phase of
	// filter-and-refine, so an exact engine with pruning enabled keeps one
	// too.
	if e.measure != nil && (e.profOpts != nil || !e.noPrune) {
		e.profiles = newLRUCache(capacity, (*core.Profile).MemoryBytes)
	}
	// A recovered (or pre-populated) corpus becomes the initial slot set.
	// ForEach yields refs in sorted-ID order, so slot assignment — and with
	// it Match.Slot and tie-breaking — is deterministic across restarts.
	if err := corpus.ForEach(func(ref store.Ref) error {
		e.takeSlotLocked(ref)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("engine: load corpus: %w", err)
	}
	e.warmProfiles = e.warmFromSidecar()
	return e, nil
}

// setBoundOpts sets the options the engine builds its cached profiles
// with; bounds asks for the filter-and-refine bound state. It is the one
// place that decides between full and bound-only profiles: an engine that
// scores through profiles needs their entries, while any other engine
// reads only the bound state that core.UpperBound and
// core.Measure.RefineThreshold take, so its profiles skip the entries and
// their Eq. 4 interpolations.
func (e *Engine) setBoundOpts(bounds bool) {
	if e.profOpts != nil {
		e.boundOpts = *e.profOpts
	}
	e.boundOpts.Bounds = bounds
	e.boundOpts.BoundsOnly = bounds && e.profOpts == nil
}

// warmFromSidecar installs the corpus's recovered derived-state sidecar
// entries into the profile cache and registers the capture callback the
// store invokes at snapshot time. The store has already revalidated each
// payload against its record's content and remapped it to the recovered
// generation, so validation here is about configuration: a profile only
// warms the cache if it was built with this engine's bucket width, carries
// bound state, and carries what the engine scores with — a profiled engine
// skips bound-only profiles, while an exact engine reads only bound state,
// so it accepts both kinds and keeps a full profile's bound state alone,
// exactly the profile it would build itself (the record identity is
// re-checked defensively anyway). Installed profiles serve every request
// for their records, by-ID queries included (keyFor). Returns the number
// of profiles warm-loaded; no-op for in-memory corpora and engines without
// a profile cache.
func (e *Engine) warmFromSidecar() int {
	sc, ok := e.corpus.(store.SidecarCorpus)
	if !ok || e.measure == nil || e.profiles == nil {
		return 0
	}
	w := e.boundOpts.BucketSeconds
	if w == 0 {
		w = core.DefaultProfileBucketSeconds
	}
	loaded := 0
	for _, ent := range sc.WarmEntries() {
		prof, err := core.DecodeProfile(ent.Blob)
		if err != nil {
			continue
		}
		if prof.ID != ent.ID || prof.BucketSeconds != w || !prof.HasBounds() ||
			prof.BoundsOnly() && e.profOpts != nil {
			continue
		}
		slot, ok := e.byID[ent.ID]
		if !ok {
			continue
		}
		ref := e.slots[slot].ref
		if ref.Gen != ent.Gen || prof.SampleCount() != ref.N {
			continue
		}
		if e.profOpts == nil {
			prof = prof.BoundState()
		}
		e.profiles.put(refKey(ref), prof)
		loaded++
	}
	sc.SetSidecarSource(e.captureSidecar)
	return loaded
}

// captureSidecar enumerates the profile cache for the store's snapshot
// writer. Only corpus-record entries are captured — profiles of
// trajectories that are not resident records carry generation 0 and have
// no record to bind to. The store
// re-filters captured entries against the snapshot's refs, so a stale
// generation here is merely skipped, never persisted.
func (e *Engine) captureSidecar() []store.SidecarEntry {
	var out []store.SidecarEntry
	e.profiles.each(func(k prepKey, p *core.Profile) {
		if k.gen == 0 {
			return
		}
		out = append(out, store.SidecarEntry{ID: k.id, Gen: k.gen, Blob: core.EncodeProfile(p)})
	})
	return out
}

// WarmLoaded reports how many profiles the engine installed from the
// store's derived-state sidecar at construction (0 for cold starts and
// in-memory corpora).
func (e *Engine) WarmLoaded() int { return e.warmProfiles }

// Corpus returns the engine's backing store.
func (e *Engine) Corpus() store.Corpus { return e.corpus }

// StoreStats returns the backing store's footprint and persistence
// counters.
func (e *Engine) StoreStats() store.Stats { return e.corpus.Stats() }

// Recovery returns the backing store's Open-time recovery report
// (ok=false when the corpus is in-memory).
func (e *Engine) Recovery() (store.RecoveryInfo, bool) { return e.corpus.Recovery() }

// Close closes the backing store (flushing its WAL when persistent);
// further corpus mutations fail.
func (e *Engine) Close() error { return e.corpus.Close() }

// Snapshot forces the backing store to capture a full snapshot now —
// including the derived-state sidecar when the store carries one — instead
// of waiting for the WAL-growth trigger. It errors on non-durable corpora.
func (e *Engine) Snapshot() error {
	if sn, ok := e.corpus.(interface{ Snapshot() error }); ok {
		return sn.Snapshot()
	}
	return errors.New("engine: snapshot requires a durable corpus")
}

// Profiled reports whether the engine scores through bucketed profiles.
func (e *Engine) Profiled() bool { return e.profOpts != nil }

// Scorer returns the engine's scorer.
func (e *Engine) Scorer() Scorer { return e.scorer }

// Workers returns the engine's parallelism bound.
func (e *Engine) Workers() int { return e.workers }

// CacheStats returns the prepared-trajectory cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// ProfileCacheStats returns the profile cache counters. Profiled scoring
// and the bound pass of pruned queries both read that cache, so the
// counters are all zero only on an exact engine with pruning disabled.
func (e *Engine) ProfileCacheStats() CacheStats {
	if e.profiles == nil {
		return CacheStats{}
	}
	return e.profiles.stats()
}

// Len returns the number of trajectories in the corpus, sourced from the
// backing store.
func (e *Engine) Len() int {
	return e.corpus.Len()
}

// Get returns the corpus trajectory with the given ID. It reads the
// record's Ref under e.mu and, when the engine's record cache does not
// hold that generation, decodes the Ref after releasing the lock, so the
// array is cached only under the generation it was decoded from. Repeated
// lookups of an unchanged record return the same backing array; callers
// must not mutate it. Scoring the result resolves the record's own cached
// derived state (keyFor).
func (e *Engine) Get(id string) (model.Trajectory, bool) {
	e.mu.RLock()
	slot, ok := e.byID[id]
	var ref store.Ref
	if ok {
		ref = e.slots[slot].ref
	}
	e.mu.RUnlock()
	if !ok {
		return model.Trajectory{}, false
	}
	tr, err := e.records.get(ref)
	return tr, err == nil
}

// keyFor is the cache key of tr's derived state: its record's refKey when
// tr is the array the record cache holds for its ID, keyOf for any other
// trajectory. It takes no lock.
func (e *Engine) keyFor(tr model.Trajectory) prepKey {
	if k, ok := e.records.key(tr); ok {
		return k
	}
	return keyOf(tr)
}

// IDs returns the corpus trajectory IDs, sorted, from the backing store.
func (e *Engine) IDs() []string {
	return e.corpus.IDs()
}

// Subset resolves corpus trajectories by ID under one consistent snapshot,
// preserving the request order; an empty ids selects the whole corpus in
// sorted-ID order. Unknown IDs fail the whole call so partial datasets
// never reach a linking or batch-scoring run silently. It reads every
// record's Ref under one read lock, then decodes them through the record
// cache after releasing it, as Get does.
func (e *Engine) Subset(ids []string) (model.Dataset, error) {
	e.mu.RLock()
	if len(ids) == 0 {
		ids = e.corpus.IDs()
	}
	refs := make([]store.Ref, len(ids))
	for i, id := range ids {
		slot, ok := e.byID[id]
		if !ok {
			e.mu.RUnlock()
			return nil, fmt.Errorf("engine: trajectory %q %w", id, ErrNotFound)
		}
		refs[i] = e.slots[slot].ref
	}
	e.mu.RUnlock()
	out := make(model.Dataset, len(refs))
	for i, ref := range refs {
		tr, err := e.records.get(ref)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

// Add inserts a trajectory into the corpus and returns its slot. The
// trajectory must validate and carry a non-empty ID not already present.
// The record is encoded into the store (and its WAL when persistent)
// before any engine state changes — no corpus rebuild.
func (e *Engine) Add(tr model.Trajectory) (int, error) {
	if tr.ID == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	if err := tr.Validate(); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byID[tr.ID]; ok {
		return 0, fmt.Errorf("engine: trajectory %q already in corpus (use Replace)", tr.ID)
	}
	ref, err := e.corpus.Add(tr)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return e.takeSlotLocked(ref), nil
}

// Remove deletes the trajectory with the given ID from the corpus (and its
// WAL when persistent) and its cached derived state.
func (e *Engine) Remove(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot, ok := e.byID[id]
	if !ok {
		return fmt.Errorf("engine: trajectory %q %w", id, ErrNotFound)
	}
	if err := e.corpus.Remove(id); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	e.dropSlotLocked(slot)
	return nil
}

// Replace swaps the corpus trajectory with tr.ID for tr, keeping its slot
// when present and adding it otherwise. Stale cache entries are dropped
// incrementally.
func (e *Engine) Replace(tr model.Trajectory) (int, error) {
	if tr.ID == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	if err := tr.Validate(); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if slot, ok := e.byID[tr.ID]; ok {
		oldRef := e.slots[slot].ref
		ref, err := e.corpus.Replace(tr)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
		e.forgetDerived(refKey(oldRef))
		e.slots[slot] = corpusSlot{ref: ref, used: true, minT: slotMinT(ref)}
		return slot, nil
	}
	ref, err := e.corpus.Replace(tr)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return e.takeSlotLocked(ref), nil
}

// takeSlotLocked records ref in a free (or new) slot. Caller holds e.mu.
func (e *Engine) takeSlotLocked(ref store.Ref) int {
	s := corpusSlot{ref: ref, used: true, minT: slotMinT(ref)}
	var slot int
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[slot] = s
	} else {
		slot = len(e.slots)
		e.slots = append(e.slots, s)
	}
	e.byID[ref.ID] = slot
	return slot
}

// dropSlotLocked frees a slot and its derived state. Caller holds e.mu and
// has already removed the record from the corpus.
func (e *Engine) dropSlotLocked(slot int) {
	ref := e.slots[slot].ref
	e.forgetDerived(refKey(ref))
	delete(e.byID, ref.ID)
	e.slots[slot] = corpusSlot{}
	e.free = append(e.free, slot)
}

// ErrNoQuery is returned by TopK when the query trajectory is invalid.
var ErrNoQuery = errors.New("engine: invalid query trajectory")

// ErrNotFound reports a corpus lookup of an unknown trajectory ID; Remove
// and Subset wrap it so callers (the HTTP layer) can map it to a 404
// without string matching.
var ErrNotFound = errors.New("not in corpus")

// candidate is one corpus entry snapshotted for a query. The Ref embeds
// the immutable record bytes, so the query decodes the trajectory as of
// the snapshot even if the corpus mutates underneath.
type candidate struct {
	slot int
	ref  store.Ref
}

// snapshotCandidates snapshots every resident slot under one read lock,
// so later corpus mutations do not affect the query.
func (e *Engine) snapshotCandidates() []candidate {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cands := make([]candidate, 0, len(e.byID))
	for slot, s := range e.slots {
		if s.used {
			cands = append(cands, candidate{slot: slot, ref: s.ref})
		}
	}
	return cands
}

// canPrune reports whether the engine can run the filter-and-refine query
// path: pruning enabled and a measure-backed scorer with a bound-profile
// cache to derive admissible upper bounds from.
func (e *Engine) canPrune() bool {
	return !e.noPrune && e.measure != nil && e.profiles != nil
}

// prepared returns the cached prepared state under key, preparing it at
// most once concurrently from the samples load returns. A resident record
// passes refKey(ref) and ref.Decode, so a miss decodes the record just
// before preparation and cached entries never hold boxed samples; a
// trajectory in hand passes keyFor(tr) and inHand(tr), so an array Get or
// Subset handed out resolves under its record's refKey and is prepared
// from the samples in hand.
func (e *Engine) prepared(key prepKey, load func() (model.Trajectory, error)) (*core.Prepared, error) {
	return e.cache.get(key, func() (*core.Prepared, error) {
		tr, err := load()
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		p, err := e.measure.Prepare(tr)
		if err != nil {
			return nil, fmt.Errorf("engine: prepare %q: %w", tr.ID, err)
		}
		return p, nil
	})
}

// profiled returns the cached bucketed profile under key (see prepared),
// building it at most once concurrently. The build routes through the
// prepared cache, so a trajectory's estimator state is shared between the
// exact and profiled paths. Profiled engines score with these profiles;
// exact ones use them only for the filter phase's upper bounds, so theirs
// are bound-only. built is the prepared state this call built the profile
// from, nil when the profile was cached: a caller that refines the
// trajectory next keeps it, since a small prepared cache may have evicted
// it by then.
func (e *Engine) profiled(key prepKey, load func() (model.Trajectory, error)) (prof *core.Profile, built *core.Prepared, err error) {
	prof, err = e.profiles.get(key, func() (*core.Profile, error) {
		p, err := e.prepared(key, load)
		if err != nil {
			return nil, err
		}
		prof, err := e.measure.Profile(p, e.boundOpts)
		if err != nil {
			return nil, fmt.Errorf("engine: profile %q: %w", key.id, err)
		}
		built = p
		return prof, nil
	})
	return prof, built, err
}

// inHand is the load function of a trajectory the caller already holds.
func inHand(tr model.Trajectory) func() (model.Trajectory, error) {
	return func() (model.Trajectory, error) { return tr, nil }
}

// forgetDerived drops every cached derived state of one record generation
// and the record's array in the record cache. Caller holds e.mu, so no Get
// or Subset reads that generation's Ref again.
func (e *Engine) forgetDerived(key prepKey) {
	e.records.forget(key.id)
	e.cache.forget(key)
	if e.profiles != nil {
		e.profiles.forget(key)
	}
}
