package engine

import (
	"container/list"
	"sync"

	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// prepKey identifies one trajectory's derived state (prepared estimator or
// bucketed profile). Corpus trajectories are keyed by {id, n, gen}: the
// store's record generation is unique per (re)encoded record and never
// zero, so replacements can never collide with their predecessors.
// External trajectories (queries, batch datasets) carry gen 0 and pin the
// identity of the backing sample array instead — trajectory IDs alone are
// not unique across datasets (matching experiments reuse an object's ID
// for both halves of a split). Trajectories handed to the engine must not
// be mutated in place afterwards — the standard contract for sharing
// slices across goroutines anyway.
type prepKey struct {
	id    string
	n     int
	gen   uint64
	first *model.Sample
}

func keyOf(tr model.Trajectory) prepKey {
	k := prepKey{id: tr.ID, n: len(tr.Samples)}
	if k.n > 0 {
		k.first = &tr.Samples[0]
	}
	return k
}

func refKey(ref store.Ref) prepKey {
	return prepKey{id: ref.ID, n: ref.N, gen: ref.Gen}
}

// hashKey is FNV-1a over the key's ID mixed with its sample count and
// record generation — the shard selector. The backing-array pointer is
// deliberately left out: it only disambiguates same-ID same-length
// replacements of external trajectories, and hashing it would make shard
// placement depend on allocation addresses.
func hashKey(k prepKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.id); i++ {
		h ^= uint64(k.id[i])
		h *= prime64
	}
	h ^= uint64(k.n)
	h *= prime64
	h ^= k.gen
	h *= prime64
	return h
}

// CacheStats reports one derived-state cache's counters. Hits+Misses is
// the total number of lookups; Evictions counts entries dropped by the LRU
// bound. The engine keeps one cache per kind of derived state (prepared
// trajectories, and bucketed profiles when profiling is enabled), each
// with its own stats.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Size is the current number of cached entries, Cap the configured
	// bound (0 = unbounded).
	Size int
	Cap  int
	// Bytes is the estimated resident heap footprint of the completed
	// cached values (0 when the cache has no size estimator).
	Bytes int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheEntry is one cache slot. ready is closed once v/err are set, so
// concurrent requests for the same trajectory block on the single
// in-flight build instead of duplicating it.
type cacheEntry[V any] struct {
	key   prepKey
	ready chan struct{}
	done  bool
	v     V
	err   error
	bytes int64 // size estimate counted into the shard's total
}

// cacheShard is one independently locked slice of the cache: an LRU with
// single-flight semantics and its own counters. Keys are partitioned across
// shards by hash, so concurrent lookups of different trajectories contend
// on different mutexes instead of convoying behind one (the profile cache
// sits on every worker's hot path).
type cacheShard[V any] struct {
	mu      sync.Mutex
	cap     int        // 0 = unbounded
	order   *list.List // front = most recently used; values are *cacheEntry[V]
	entries map[prepKey]*list.Element
	size    func(V) int // nil = no byte accounting

	hits      uint64
	misses    uint64
	evictions uint64
	bytes     int64
}

// cacheShards is the shard count of a sharded cache (a power of two).
const cacheShards = 8

// minShardedCap is the smallest bounded capacity worth splitting: below it
// per-shard capacities would round to a handful of entries and the
// partition — not the LRU policy — would decide what survives. Small caches
// keep one shard and exact global LRU order.
const minShardedCap = 64

// lruCache is a size-bounded, sharded LRU of per-trajectory derived state
// with single-flight semantics and hit/miss/eviction counters. The engine
// instantiates it for *core.Prepared and *core.Profile. All methods are
// safe for concurrent use. The capacity bound is exact (shards split it
// without remainder loss); eviction order is LRU per shard, which
// approximates global LRU for the sharded sizes.
type lruCache[V any] struct {
	shards []*cacheShard[V]
	mask   uint64
	cap    int
}

// newLRUCache builds a cache bounded to capacity entries (0 = unbounded).
// size, when non-nil, estimates one value's resident bytes for the stats'
// footprint gauge.
func newLRUCache[V any](capacity int, size func(V) int) *lruCache[V] {
	n := cacheShards
	if capacity > 0 && capacity < minShardedCap {
		n = 1
	}
	c := &lruCache[V]{shards: make([]*cacheShard[V], n), mask: uint64(n - 1), cap: capacity}
	for i := range c.shards {
		scap := 0
		if capacity > 0 {
			scap = capacity / n
			if i < capacity%n {
				scap++
			}
		}
		c.shards[i] = &cacheShard[V]{
			cap:     scap,
			order:   list.New(),
			entries: make(map[prepKey]*list.Element),
			size:    size,
		}
	}
	return c
}

func (c *lruCache[V]) shard(key prepKey) *cacheShard[V] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[hashKey(key)&c.mask]
}

// get returns the derived state for key, building it with build() on a
// miss. Errors are not cached: the failed entry is removed so a later call
// retries, but every waiter of the in-flight attempt sees the error.
func (c *lruCache[V]) get(key prepKey, build func() (V, error)) (V, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.hits++
		s.order.MoveToFront(el)
		e := el.Value.(*cacheEntry[V])
		s.mu.Unlock()
		<-e.ready
		return e.v, e.err
	}
	s.misses++
	e := &cacheEntry[V]{key: key, ready: make(chan struct{})}
	s.entries[key] = s.order.PushFront(e)
	s.evictLocked()
	s.mu.Unlock()

	v, err := build()

	s.mu.Lock()
	e.v, e.err = v, err
	e.done = true
	if err != nil {
		if el, ok := s.entries[key]; ok && el.Value.(*cacheEntry[V]) == e {
			s.order.Remove(el)
			delete(s.entries, key)
		}
	} else if s.size != nil {
		e.bytes = int64(s.size(v))
		s.bytes += e.bytes
	}
	s.mu.Unlock()
	close(e.ready)
	return v, err
}

// evictLocked drops least-recently-used *completed* entries until the shard
// fits its bound. In-flight entries are skipped — evicting them would
// strand waiters — so the shard can transiently exceed cap while many
// builds race.
func (s *cacheShard[V]) evictLocked() {
	if s.cap <= 0 {
		return
	}
	for el := s.order.Back(); el != nil && len(s.entries) > s.cap; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry[V])
		if e.done {
			s.order.Remove(el)
			delete(s.entries, e.key)
			s.evictions++
			s.bytes -= e.bytes
		}
		el = prev
	}
}

// put inserts a completed value for key, dropping the least-recently-used
// entries if the shard overflows. An existing entry (completed or in
// flight) wins: the racing build produced the same generation's state, and
// replacing an in-flight entry would strand its waiters.
func (c *lruCache[V]) put(key prepKey, v V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	e := &cacheEntry[V]{key: key, ready: make(chan struct{}), done: true, v: v}
	close(e.ready)
	if s.size != nil {
		e.bytes = int64(s.size(v))
		s.bytes += e.bytes
	}
	s.entries[key] = s.order.PushFront(e)
	s.evictLocked()
}

// each calls fn for every completed, error-free entry. Each shard's
// entries are collected under its lock and fn runs after the shard
// unlocks, so fn may be expensive (the sidecar capture encodes profile
// blobs) without stalling concurrent lookups. Entries completing or
// evicting during the walk may or may not be visited — callers that
// need exactness must revalidate downstream (the store re-filters
// captured entries against the snapshot's refs).
func (c *lruCache[V]) each(fn func(prepKey, V)) {
	for _, s := range c.shards {
		s.mu.Lock()
		keys := make([]prepKey, 0, len(s.entries))
		vals := make([]V, 0, len(s.entries))
		for el := s.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*cacheEntry[V]); e.done && e.err == nil {
				keys = append(keys, e.key)
				vals = append(vals, e.v)
			}
		}
		s.mu.Unlock()
		for i := range keys {
			fn(keys[i], vals[i])
		}
	}
}

// forget removes a trajectory's entry (if completed) — corpus Remove and
// Replace call it so stale derived state does not linger at full cache
// capacity.
func (c *lruCache[V]) forget(key prepKey) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		if e := el.Value.(*cacheEntry[V]); e.done {
			s.order.Remove(el)
			delete(s.entries, key)
			s.bytes -= e.bytes
		}
	}
	s.mu.Unlock()
}

func (c *lruCache[V]) stats() CacheStats {
	out := CacheStats{Cap: c.cap}
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Size += len(s.entries)
		out.Bytes += s.bytes
		s.mu.Unlock()
	}
	return out
}
