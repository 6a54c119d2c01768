package engine

import (
	"context"

	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// Service is the full corpus-and-query surface an STS serving process
// binds to: corpus mutation, lookups with explicit ordering contracts,
// top-k search, batch scoring, and observability. Two implementations
// exist — the single *Engine and the partitioned *Sharded coordinator —
// and they are interchangeable: the HTTP server, the linking batcher, and
// the root facade all program against Service, so turning sharding on is
// a construction-time decision, not an API change.
//
// Ordering contracts (identical for both implementations, so HTTP
// listings and snapshots are deterministic under sharding):
//
//   - IDs returns trajectory IDs in ascending lexicographic order; the
//     coordinator produces this by sorted merge across shards.
//   - Subset preserves the request order of ids; an empty ids selects the
//     whole corpus in sorted-ID order.
//   - TopK/TopKOpts return matches by descending score. Score ties break
//     by corpus slot on a single engine and by ascending trajectory ID
//     across shards (slots are shard-local); both are deterministic.
type Service interface {
	// Mutation — on the coordinator each call routes to the one shard
	// owning the trajectory ID, so writes to different shards never
	// contend on a shared lock.
	Add(tr model.Trajectory) (int, error)
	Remove(id string) error
	Replace(tr model.Trajectory) (int, error)
	// Append extends a resident trajectory with strictly-later samples
	// (the streaming ingestion path); TrimBefore is the retention sweep
	// dropping samples older than the cutoff timestamp. Both forget the
	// superseded records' cached derived state, as Replace does.
	Append(id string, tail []model.Sample) (int, error)
	TrimBefore(cutoff float64) (TrimStats, error)

	// Lookup.
	Get(id string) (model.Trajectory, bool)
	Len() int
	IDs() []string
	Subset(ids []string) (model.Dataset, error)

	// Queries.
	TopK(ctx context.Context, query model.Trajectory, k int) ([]Match, error)
	TopKOpts(ctx context.Context, query model.Trajectory, opts TopKOptions) ([]Match, error)
	ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error)
	ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error)

	// Introspection and observability. On the coordinator the counter
	// stats (cache, prune, store) are sums over shards; Recovery reports
	// the slowest shard's wall time with record counts summed.
	Scorer() Scorer
	Workers() int
	Profiled() bool
	CacheStats() CacheStats
	ProfileCacheStats() CacheStats
	PruneStats() PruneStats
	StoreStats() store.Stats
	Recovery() (store.RecoveryInfo, bool)
	// WarmLoaded reports how many profiles were installed from the
	// store's derived-state sidecar at construction (summed over shards;
	// 0 for cold starts and in-memory corpora).
	WarmLoaded() int
	// Snapshot forces an immediate store snapshot (every shard on the
	// coordinator), capturing the derived-state sidecar alongside the
	// corpus; it errors on non-durable corpora.
	Snapshot() error
	Close() error
}

// ShardStater is implemented by Service values that partition the corpus
// and can report per-partition statistics; the HTTP layer type-asserts it
// to emit per-shard /v1/stats sections and shard-labeled metrics without
// the single-engine path knowing sharding exists.
type ShardStater interface {
	ShardStats() []ShardStat
}

var (
	_ Service = (*Engine)(nil)
	_ Service = (*Sharded)(nil)

	_ ShardStater = (*Sharded)(nil)
)
