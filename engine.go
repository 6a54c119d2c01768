package sts

import (
	"context"
	"math"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/store"
)

// Engine is the long-lived execution layer for serving similarity
// workloads over a mutating corpus: it binds a scorer to a corpus of
// trajectories and owns the prepared-trajectory and profile LRU caches,
// the filter-and-refine top-k path, and the cancellable worker pool every
// query runs on.
//
// Use it instead of the one-shot functions when the corpus outlives a
// single call — repeated queries reuse cached per-trajectory preparation
// (speed models, observed-timestamp distributions) instead of rebuilding
// it per request.
type Engine = engine.Engine

// EngineService is the corpus-and-query surface NewEngine returns: the
// single Engine and the sharded coordinator (EngineOptions.Shards > 1)
// both implement it, so callers — including NewServer — are agnostic to
// whether the corpus is partitioned. See engine.Service for the ordering
// and determinism contracts.
type EngineService = engine.Service

// ShardedEngine is the single-process partitioned engine NewEngine builds
// when EngineOptions.Shards > 1: trajectories are routed to independent
// engine shards by FNV-1a hash of their ID, mutations touch only the
// owning shard, and top-k queries scatter-gather with the running global
// k-th-best score forwarded as each wave's pruning floor.
type ShardedEngine = engine.Sharded

// EngineShardStats is one shard's observability snapshot (see
// ShardedEngine.ShardStats).
type EngineShardStats = engine.ShardStat

// EngineMatch is one result of Engine.TopK: the matched trajectory's ID,
// its corpus slot, and its similarity to the query.
type EngineMatch = engine.Match

// CacheStats reports the engine's prepared-trajectory cache counters.
type CacheStats = engine.CacheStats

// TopKOptions parameterizes Engine.TopKOpts: result size, an optional
// score floor (which also feeds the filter-and-refine pruning), and a
// forced-exhaustive switch for equivalence checking.
type TopKOptions = engine.TopKOptions

// EnginePruneStats reports the engine's cumulative filter-and-refine
// counters (see Engine.PruneStats).
type EnginePruneStats = engine.PruneStats

// StoreStats reports the columnar corpus store's footprint and persistence
// counters (see Engine.StoreStats).
type StoreStats = store.Stats

// RecoveryInfo reports what a persistent engine's boot-time recovery did:
// snapshot load, WAL replay, and torn-tail truncation (see
// Engine.Recovery).
type RecoveryInfo = store.RecoveryInfo

// StoreOptions configures the engine's columnar corpus store.
type StoreOptions struct {
	// Dir, when non-empty, makes the corpus durable: mutations are written
	// ahead to a CRC-framed log in this directory and periodically
	// compacted into snapshots, and NewEngine recovers the directory's
	// content into the corpus (truncating torn WAL tails after a crash).
	// Empty keeps the corpus in memory.
	Dir string
	// CoordStep quantizes stored coordinates to fixed-point multiples of
	// this step in meters (0 = lossless). Records are self-describing, so
	// the step may change across restarts. Keep it far below the measure's
	// noise sigma; sigma*1e-9 bounds the score deviation at ≤1e-9.
	CoordStep float64
	// FsyncInterval batches WAL fsyncs: positive syncs at most that often,
	// 0 selects the 50ms default, negative never syncs explicitly. Ignored
	// without Dir.
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic snapshot once the WAL has grown
	// this many bytes (0 selects the 64MiB default, negative disables).
	// Ignored without Dir.
	SnapshotEvery int64
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Workers bounds query parallelism (0 selects GOMAXPROCS).
	Workers int
	// CacheSize bounds the prepared-trajectory LRU cache (0 selects the
	// default of 4096 entries; negative means unbounded).
	CacheSize int
	// Profile, when set, switches measure-backed scoring to the bucketed
	// S-T profile approximation: each corpus trajectory's sparse profile
	// is built once (cached in a second LRU with its own hit/miss stats,
	// see Engine.ProfileCacheStats) and every pair evaluation becomes a
	// sparse dot-product merge — trading a bounded, BucketSeconds-
	// controlled score deviation for an O(N)→O(1) amortization of the
	// per-trajectory interpolation work across pairs. Requires a
	// measure-backed scorer (NewScorer / NewProfiledScorer).
	Profile *ProfileOptions
	// DisablePruning forces TopK and thresholded queries down the
	// exhaustive path, bypassing the filter-and-refine bounds (the pruned
	// path returns identical results; this switch exists for baselines and
	// debugging).
	DisablePruning bool
	// Store configures the columnar corpus store backing the engine; nil
	// selects an in-memory lossless store. Set Store.Dir for durability
	// (WAL + snapshot recovery). Call Engine.Close when done with a
	// persistent engine.
	Store *StoreOptions
	// Shards partitions the corpus across this many independent engine
	// shards (0 or 1 keeps the single engine). Each shard owns its own
	// store (under Store.Dir/shard-NNN when persistent) and
	// derived-state caches — CacheSize and Workers are split across
	// shards — and mutations route to one shard by ID hash, so concurrent
	// writes stop contending on a global lock. Queries scatter-gather with
	// bit-identical scores; see EngineService.
	Shards int
	// FanOut bounds how many shards one query scatters to concurrently
	// (0 selects the engine default of 4; clamped to Shards). Only
	// meaningful with Shards > 1.
	FanOut int
}

// NewEngine builds an engine around a scorer (use NewScorer to wrap a
// Measure — measure-backed scorers get the prepared-cache fast path).
// Populate the corpus with Add/Replace; query with TopK and ScoreBatch.
// With EngineOptions.Shards > 1 the returned service is a ShardedEngine
// partitioning the corpus across independent shards; otherwise it is a
// single *Engine. Both satisfy EngineService with identical results.
func NewEngine(scorer Scorer, opts EngineOptions) (EngineService, error) {
	if opts.Shards > 1 {
		return newShardedEngine(scorer, opts)
	}
	shardOpts, err := engineShardOptions(scorer, opts, -1)
	if err != nil {
		return nil, err
	}
	return engine.New(scorer, shardOpts)
}

// newShardedEngine builds the partitioned engine: CacheSize is split
// evenly across shards, per-shard worker budgets are sized so one
// saturating query uses ~Workers goroutines across a scatter wave, and
// persistent shards open (and recover) concurrently under
// Store.Dir/shard-NNN.
func newShardedEngine(scorer Scorer, opts EngineOptions) (EngineService, error) {
	return engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:  opts.Shards,
		FanOut:  opts.FanOut,
		Workers: opts.Workers,
		ShardOptions: func(shard int) (engine.Options, error) {
			return engineShardOptions(scorer, opts, shard)
		},
	})
}

// engineShardOptions resolves EngineOptions into one engine.Options —
// for the single engine (shard < 0) or for one shard of a partitioned
// engine (per-shard cache split, worker split, and store subdirectory).
func engineShardOptions(scorer Scorer, opts EngineOptions, shard int) (engine.Options, error) {
	out := engine.Options{
		Workers:        opts.Workers,
		CacheSize:      opts.CacheSize,
		Profile:        opts.Profile,
		DisablePruning: opts.DisablePruning,
	}
	if shard >= 0 {
		out.Workers = engine.SplitWorkers(opts.Workers, opts.FanOut)
		cache := opts.CacheSize
		if cache == 0 {
			cache = engine.DefaultCacheSize
		}
		if cache > 0 {
			cache = (cache + opts.Shards - 1) / opts.Shards
		}
		out.CacheSize = cache
	}
	if opts.Store != nil {
		stOpts := store.Options{
			CoordStep:     opts.Store.CoordStep,
			FsyncInterval: opts.Store.FsyncInterval,
			SnapshotEvery: opts.Store.SnapshotEvery,
		}
		if opts.Store.Dir != "" {
			dir := opts.Store.Dir
			if shard >= 0 {
				dir = store.ShardDir(dir, shard)
			}
			st, err := store.Open(dir, stOpts)
			if err != nil {
				return engine.Options{}, err
			}
			out.Corpus = st
		} else {
			out.Corpus = store.New(stOpts)
		}
	}
	return out, nil
}

// MatchContext is Match with cancellation: the full-matrix scoring runs on
// the engine executor and aborts promptly when ctx is cancelled or its
// deadline passes.
func MatchContext(ctx context.Context, d1, d2 Dataset, s Scorer, workers int) (MatchResult, error) {
	return eval.MatchingContext(ctx, d1, d2, s, workers)
}

// LinkDatasetsContext is LinkDatasets with cancellation.
func LinkDatasetsContext(ctx context.Context, d1, d2 Dataset, scorer Scorer, opts LinkOptions) ([]Link, error) {
	return linking.GreedyLinkContext(ctx, d1, d2, scorer, opts)
}

// LinkDatasetsOptimalContext is LinkDatasetsOptimal with cancellation.
func LinkDatasetsOptimalContext(ctx context.Context, d1, d2 Dataset, scorer Scorer, opts LinkOptions) ([]Link, error) {
	return linking.OptimalLinkContext(ctx, d1, d2, scorer, opts)
}

// ScoreMatrixContext scores rows × cols with cancellation:
// scores[i][j] = s.Score(rows[i], cols[j]), with NaN mapped to −Inf. An STS
// scorer prepares (and, when profiled, profiles) each distinct trajectory
// once per call.
func ScoreMatrixContext(ctx context.Context, rows, cols Dataset, s Scorer, workers int) ([][]float64, error) {
	return engine.ScoreMatrix(ctx, s, rows, cols, nil, math.Inf(-1), workers)
}
