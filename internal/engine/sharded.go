// Sharded is the single-process partitioned engine: N independent Engine
// shards — each with its own corpus store and derived-state
// LRUs — behind a coordinator that implements the same Service surface.
// Trajectories are routed to shards by FNV-1a hash of their ID (the same
// idiom the LRU caches shard by), so mutations to different shards never
// touch a shared lock: sharding removes the per-engine write mutex and the
// store coordinator from the global write path.
//
// Queries scatter-gather. TopK visits shards in waves, freezing each
// wave's MinScore floor at the best k-th score gathered so far, so later
// shards filter-and-refine against an ever-tighter threshold — the same
// bound-forwarding the distance-bounded search literature uses for
// distributed pruning. Batch scoring fans contiguous row blocks across
// shards. Every trajectory a query scores — the top-k query, each batch
// row and column — resolves its derived state once, on the shard that
// owns its ID, and the shards that score share those pointers, so a
// resident record has one cached copy however it is requested. Results
// are bit-identical to a single engine over the same corpus because every
// shard runs the same exact-or-certified scoring paths; only float-equal
// score ties can order differently (the coordinator breaks them by
// trajectory ID, a single engine by corpus slot — both deterministic).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// DefaultFanOut bounds how many shards one query scatters to concurrently
// when ShardedOptions.FanOut is zero. Waves of this width keep a single
// query from oversubscribing every shard's worker pool at once while still
// letting the first wave fill the merge heap fast enough that later waves
// inherit a useful pruning floor.
const DefaultFanOut = 4

// ShardedOptions configures NewSharded.
type ShardedOptions struct {
	// Shards is the partition count; NewSharded requires at least 2 (a
	// single partition is just New).
	Shards int
	// FanOut bounds per-query scatter concurrency (0 selects
	// DefaultFanOut; values above Shards are clamped).
	FanOut int
	// Workers is the coordinator's total parallelism bound, reported by
	// Workers() (0 selects GOMAXPROCS). Per-shard worker budgets are set
	// by ShardOptions; SplitWorkers is the recommended split.
	Workers int
	// ShardOptions returns the Options for shard i — its corpus store
	// (per-shard subdirectory when persistent), cache capacity,
	// and worker budget. Required. It is called concurrently for all
	// shards, so persistent stores recover in parallel.
	ShardOptions func(shard int) (Options, error)
}

// SplitWorkers divides a total worker budget among the shards of one
// scatter wave: with fanOut shards scoring concurrently, each gets
// total/fanOut (at least 1), so a saturating query uses ~total workers
// regardless of shard count.
func SplitWorkers(total, fanOut int) int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if fanOut <= 0 {
		fanOut = DefaultFanOut
	}
	if w := total / fanOut; w > 1 {
		return w
	}
	return 1
}

// ShardStat is one shard's observability snapshot.
type ShardStat struct {
	// Shard is the partition number (0-based), Len its corpus size.
	Shard int
	Len   int

	Cache        CacheStats
	ProfileCache CacheStats
	Prune        PruneStats
	Store        store.Stats
}

// Sharded partitions a corpus across independent Engine shards and
// implements Service by routing mutations and scatter-gathering queries.
// All methods are safe for concurrent use. Consistency is per-shard: a
// query snapshots each shard's corpus when it reaches that shard, so a
// mutation racing a multi-shard query may land in some shards' snapshots
// and not others (each shard's snapshot is still internally consistent).
type Sharded struct {
	scorer  Scorer
	shards  []*Engine
	fanOut  int
	workers int
}

// NewSharded builds a Sharded coordinator over opts.Shards fresh Engine
// shards. Shard construction runs concurrently — persistent stores replay
// their WALs in parallel, so cold-start recovery time is the slowest
// shard's, not the sum. On error, shards already built are closed.
func NewSharded(scorer Scorer, opts ShardedOptions) (*Sharded, error) {
	if scorer == nil {
		return nil, errors.New("engine: scorer is required")
	}
	if opts.Shards < 2 {
		return nil, fmt.Errorf("engine: NewSharded needs at least 2 shards, got %d (use New for one)", opts.Shards)
	}
	if opts.ShardOptions == nil {
		return nil, errors.New("engine: ShardedOptions.ShardOptions is required")
	}
	fanOut := opts.FanOut
	if fanOut <= 0 {
		fanOut = DefaultFanOut
	}
	if fanOut > opts.Shards {
		fanOut = opts.Shards
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := make([]*Engine, opts.Shards)
	if err := ForEach(context.Background(), opts.Shards, opts.Shards, func(i int) error {
		o, err := opts.ShardOptions(i)
		if err != nil {
			return fmt.Errorf("engine: shard %d options: %w", i, err)
		}
		e, err := New(scorer, o)
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
		shards[i] = e
		return nil
	}); err != nil {
		for _, e := range shards {
			if e != nil {
				_ = e.Close()
			}
		}
		return nil, err
	}
	return &Sharded{scorer: scorer, shards: shards, fanOut: fanOut, workers: workers}, nil
}

// shardFor routes a trajectory ID to its owning shard.
func (s *Sharded) shardFor(id string) *Engine { return s.shards[s.shardIndex(id)] }

// shardIndex is the routing hash: FNV-1a over the ID bytes alone. Unlike
// the cache key hash it deliberately excludes sample count and record
// generation — a Replace must land on the shard that holds the record it
// replaces.
func (s *Sharded) shardIndex(id string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

// NumShards returns the partition count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// FanOut returns the per-query scatter concurrency bound.
func (s *Sharded) FanOut() int { return s.fanOut }

// Add inserts tr into its owning shard and returns the shard-local slot.
// Only that shard's lock is taken: concurrent Adds of IDs on different
// shards proceed without contention.
func (s *Sharded) Add(tr model.Trajectory) (int, error) {
	if tr.ID == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	return s.shardFor(tr.ID).Add(tr)
}

// Remove deletes id from its owning shard.
func (s *Sharded) Remove(id string) error { return s.shardFor(id).Remove(id) }

// Replace swaps id's trajectory on its owning shard (adding when absent)
// and returns the shard-local slot.
func (s *Sharded) Replace(tr model.Trajectory) (int, error) {
	if tr.ID == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	return s.shardFor(tr.ID).Replace(tr)
}

// Append extends id's trajectory on its owning shard; only that shard's
// lock is taken, so concurrent appends to different shards never contend.
func (s *Sharded) Append(id string, tail []model.Sample) (int, error) {
	return s.shardFor(id).Append(id, tail)
}

// TrimBefore runs the retention sweep on every shard concurrently and sums
// the per-shard stats. Atomicity is per shard (each shard's sweep holds its
// own mutation lock), matching the coordinator's general consistency model.
func (s *Sharded) TrimBefore(cutoff float64) (TrimStats, error) {
	parts := make([]TrimStats, len(s.shards))
	if err := ForEach(context.Background(), len(s.shards), s.fanOut, func(i int) error {
		var err error
		parts[i], err = s.shards[i].TrimBefore(cutoff)
		return err
	}); err != nil {
		return TrimStats{}, err
	}
	var out TrimStats
	for _, p := range parts {
		out.Removed += p.Removed
		out.Trimmed += p.Trimmed
		out.DroppedSamples += p.DroppedSamples
		out.Decoded += p.Decoded
	}
	return out, nil
}

// Get decodes id's trajectory from its owning shard's store.
func (s *Sharded) Get(id string) (model.Trajectory, bool) { return s.shardFor(id).Get(id) }

// Len returns the total corpus size across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// IDs returns all corpus trajectory IDs in ascending order — the same
// contract as Engine.IDs, produced by a sorted merge of the per-shard
// (already sorted) ID lists.
func (s *Sharded) IDs() []string {
	parts := make([][]string, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		parts[i] = sh.IDs()
		total += len(parts[i])
	}
	out := make([]string, 0, total)
	heads := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, h := range heads {
			if h >= len(parts[i]) {
				continue
			}
			if best < 0 || parts[i][h] < parts[best][heads[best]] {
				best = i
			}
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return out
}

// Subset resolves trajectories by ID, preserving request order; an empty
// ids selects the whole corpus in sorted-ID order (Engine.Subset's
// contract). IDs are grouped by owning shard and resolved with one
// Subset call per shard, so each shard's lookups run under one consistent
// snapshot; cross-shard consistency is not guaranteed under concurrent
// mutation. Unknown IDs fail the whole call with ErrNotFound.
func (s *Sharded) Subset(ids []string) (model.Dataset, error) {
	if len(ids) == 0 {
		ids = s.IDs()
	}
	owner := make([]int, len(ids))
	byShard := make([][]string, len(s.shards))
	for i, id := range ids {
		sh := s.shardIndex(id)
		owner[i] = sh
		byShard[sh] = append(byShard[sh], id)
	}
	parts := make([]model.Dataset, len(s.shards))
	if err := ForEach(context.Background(), len(s.shards), s.fanOut, func(i int) error {
		if len(byShard[i]) == 0 {
			return nil
		}
		var err error
		parts[i], err = s.shards[i].Subset(byShard[i])
		return err
	}); err != nil {
		return nil, err
	}
	out := make(model.Dataset, 0, len(ids))
	heads := make([]int, len(s.shards))
	for i := range ids {
		sh := owner[i]
		out = append(out, parts[sh][heads[sh]])
		heads[sh]++
	}
	return out, nil
}

// worseMergedMatch ranks a strictly below b in the coordinator's merge
// order: lower score, or an equal score with a lexicographically greater
// trajectory ID. Slots are shard-local and therefore meaningless across
// shards, so the merge breaks float-equal ties by ID — stable regardless
// of shard count, wave widths, or arrival order.
func worseMergedMatch(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// TopK scatter-gathers the k best matches across shards; see TopKOpts.
func (s *Sharded) TopK(ctx context.Context, query model.Trajectory, k int) ([]Match, error) {
	return s.TopKOpts(ctx, query, TopKOptions{K: k, MinScore: math.Inf(-1)})
}

// TopKOpts answers top-k by visiting shards in waves of FanOut: each wave
// queries its shards concurrently with the MinScore floor frozen at the
// wave's start — the global k-th best gathered so far (never below the
// caller's MinScore) — and merges the per-shard top-k lists into one
// bounded heap. Forwarding the floor is sound because every dropped
// candidate scores strictly below a full heap's k-th best (shard results
// retain floor ties), and it is what makes scatter-gather cheap: by the
// second wave most of each shard's corpus is rejected by the admissible
// upper bounds without exact scoring. The query's derived state resolves
// once, on the shard that owns its ID, and every shard scores with it.
// Scores are bit-identical to a single engine's; ties break by trajectory
// ID (see worseMergedMatch).
func (s *Sharded) TopKOpts(ctx context.Context, query model.Trajectory, opts TopKOptions) ([]Match, error) {
	k := opts.K
	if k <= 0 {
		return nil, nil
	}
	if err := query.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoQuery, err)
	}
	minScore := opts.MinScore
	if math.IsNaN(minScore) {
		minScore = math.Inf(-1)
	}
	q := s.shardFor(query.ID).newQuery(query)
	h := newMatchHeap(k, worseMergedMatch)
	parts := make([][]Match, s.fanOut)
	for start := 0; start < len(s.shards); start += s.fanOut {
		end := start + s.fanOut
		if end > len(s.shards) {
			end = len(s.shards)
		}
		floor := minScore
		if h.full() && h.min().Score > floor {
			floor = h.min().Score
		}
		wave := s.shards[start:end]
		if err := ForEach(ctx, len(wave), len(wave), func(i int) error {
			res, err := wave[i].topK(ctx, q, TopKOptions{
				K:          k,
				MinScore:   floor,
				Exhaustive: opts.Exhaustive,
			})
			parts[i] = res
			return err
		}); err != nil {
			return nil, err
		}
		for i := range wave {
			for _, m := range parts[i] {
				h.offer(m)
			}
		}
	}
	return h.sorted(), nil
}

// ScoreBatch is ScoreBatchMin without a floor.
func (s *Sharded) ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error) {
	return s.ScoreBatchMin(ctx, rows, cols, mask, math.Inf(-1))
}

// ScoreBatchMin resolves every needed row and column on the shard that
// owns its ID, then partitions rows into one contiguous block per shard
// (at most len(rows) blocks) and scores block b on shard b, at most fanOut
// blocks concurrently, each with that shard's workers and prune counters;
// results are reassembled in row order. Cell values are bit-identical to a
// single engine's ScoreBatchMin (same kernel, same snapshot-free
// transient data).
func (s *Sharded) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := s.shards[0].newBatch(rows, cols, mask, minScore)
	if err := b.resolve(ctx, s.workers, s.shardFor); err != nil {
		return nil, err
	}
	n := len(rows)
	if n == 0 {
		return [][]float64{}, nil
	}
	blocks := len(s.shards)
	if blocks > n {
		blocks = n
	}
	out := make([][]float64, n)
	base, rem := n/blocks, n%blocks
	lo := 0
	bounds := make([][2]int, blocks)
	for blk := 0; blk < blocks; blk++ {
		hi := lo + base
		if blk < rem {
			hi++
		}
		bounds[blk] = [2]int{lo, hi}
		lo = hi
	}
	if err := ForEach(ctx, blocks, s.fanOut, func(blk int) error {
		lo, hi := bounds[blk][0], bounds[blk][1]
		part, err := s.shards[blk].scoreRows(ctx, b, lo, hi)
		if err != nil {
			return err
		}
		copy(out[lo:hi], part)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Scorer returns the scorer shared by all shards.
func (s *Sharded) Scorer() Scorer { return s.scorer }

// Workers returns the coordinator's total parallelism bound.
func (s *Sharded) Workers() int { return s.workers }

// Profiled reports whether the shards score through bucketed profiles
// (uniform across shards by construction).
func (s *Sharded) Profiled() bool { return s.shards[0].Profiled() }

// CacheStats sums the prepared-trajectory cache counters over shards; Cap
// is the summed bound (the partition splits one logical capacity).
func (s *Sharded) CacheStats() CacheStats {
	var out CacheStats
	for _, sh := range s.shards {
		out = addCacheStats(out, sh.CacheStats())
	}
	return out
}

// ProfileCacheStats sums the profile cache counters over shards.
func (s *Sharded) ProfileCacheStats() CacheStats {
	var out CacheStats
	for _, sh := range s.shards {
		out = addCacheStats(out, sh.ProfileCacheStats())
	}
	return out
}

func addCacheStats(a, b CacheStats) CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.Size += b.Size
	a.Cap += b.Cap
	a.Bytes += b.Bytes
	return a
}

// PruneStats sums the filter-and-refine counters over shards.
func (s *Sharded) PruneStats() PruneStats {
	var out PruneStats
	for _, sh := range s.shards {
		st := sh.PruneStats()
		out.Considered += st.Considered
		out.BoundPruned += st.BoundPruned
		out.EarlyExited += st.EarlyExited
		out.Refined += st.Refined
	}
	return out
}

// StoreStats aggregates the per-shard store footprints: sizes, byte
// counts, and persistence counters are summed; RecoverySeconds is the
// slowest shard's (recovery runs in parallel); CoordStep and Persistent
// come from shard 0 (uniform across shards by construction).
func (s *Sharded) StoreStats() store.Stats {
	out := s.shards[0].StoreStats()
	for _, sh := range s.shards[1:] {
		st := sh.StoreStats()
		out.Records += st.Records
		out.LiveBytes += st.LiveBytes
		out.ArenaBytes += st.ArenaBytes
		out.WALBytes += st.WALBytes
		out.Snapshots += st.Snapshots
		out.SnapshotErrors += st.SnapshotErrors
		out.WarmProfiles += st.WarmProfiles
		out.SidecarWrites += st.SidecarWrites
		out.SidecarErrors += st.SidecarErrors
		if st.WALSeq > out.WALSeq {
			out.WALSeq = st.WALSeq
		}
		if st.RecoverySeconds > out.RecoverySeconds {
			out.RecoverySeconds = st.RecoverySeconds
		}
		if st.WarmSeconds > out.WarmSeconds {
			out.WarmSeconds = st.WarmSeconds
		}
	}
	return out
}

// Recovery aggregates the shards' Open-time recovery reports: record and
// segment counts are summed, Duration is the slowest shard's (shards
// recover concurrently, so that is the cold-start wall time), SnapshotSeq
// the highest. ok when every persistent shard reported one; false for
// in-memory corpora.
func (s *Sharded) Recovery() (store.RecoveryInfo, bool) {
	var out store.RecoveryInfo
	any := false
	for _, sh := range s.shards {
		info, ok := sh.Recovery()
		if !ok {
			continue
		}
		any = true
		out.SnapshotRecords += info.SnapshotRecords
		out.WALSegments += info.WALSegments
		out.WALRecords += info.WALRecords
		out.TruncatedBytes += info.TruncatedBytes
		out.WarmProfiles += info.WarmProfiles
		if info.Duration > out.Duration {
			out.Duration = info.Duration
		}
		if info.WarmDuration > out.WarmDuration {
			out.WarmDuration = info.WarmDuration
		}
		if info.SnapshotSeq > out.SnapshotSeq {
			out.SnapshotSeq = info.SnapshotSeq
		}
	}
	return out, any
}

// WarmLoaded sums the shards' sidecar warm-load counts.
func (s *Sharded) WarmLoaded() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.WarmLoaded()
	}
	return n
}

// ShardStats returns one observability snapshot per shard, in shard
// order — the per-partition view behind /v1/stats "shards" and the
// shard-labeled metrics.
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		out[i] = ShardStat{
			Shard:        i,
			Len:          sh.Len(),
			Cache:        sh.CacheStats(),
			ProfileCache: sh.ProfileCacheStats(),
			Prune:        sh.PruneStats(),
			Store:        sh.StoreStats(),
		}
	}
	return out
}

// Snapshot captures a snapshot (with sidecar) on every shard's store
// concurrently; all errors are joined.
func (s *Sharded) Snapshot() error {
	errs := make([]error, len(s.shards))
	_ = ForEach(context.Background(), len(s.shards), s.fanOut, func(i int) error {
		errs[i] = s.shards[i].Snapshot()
		return nil
	})
	return errors.Join(errs...)
}

// Close closes every shard's store; all errors are joined.
func (s *Sharded) Close() error {
	errs := make([]error, len(s.shards))
	for i, sh := range s.shards {
		errs[i] = sh.Close()
	}
	return errors.Join(errs...)
}
