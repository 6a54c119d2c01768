package trace

import (
	"context"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// Service decorates an engine.Service with a span around every corpus and
// query call. Span names are "engine.<Method>" plus the suffix given to
// WrapService, so the stream registry's calls can be told apart from the
// HTTP handlers' calls on the same engine.
type Service struct {
	inner  engine.Service
	t      *Tracer
	suffix string
}

// shardedService adds engine.ShardStater when the wrapped service has it:
// the HTTP layer type-asserts it for per-shard stats.
type shardedService struct {
	*Service
	ss engine.ShardStater
}

func (s shardedService) ShardStats() []engine.ShardStat { return s.ss.ShardStats() }

// WrapService returns inner with spans named "engine.<Method><suffix>".
func WrapService(t *Tracer, inner engine.Service, suffix string) engine.Service {
	s := &Service{inner: inner, t: t, suffix: suffix}
	if ss, ok := inner.(engine.ShardStater); ok {
		return shardedService{Service: s, ss: ss}
	}
	return s
}

func (s *Service) span(ctx context.Context, method string) *Active {
	return s.t.Start(ctx, LayerEngine, "engine."+method+s.suffix)
}

func (s *Service) Add(tr model.Trajectory) (int, error) {
	defer s.span(nil, "Add").End()
	return s.inner.Add(tr)
}

func (s *Service) Remove(id string) error {
	defer s.span(nil, "Remove").End()
	return s.inner.Remove(id)
}

func (s *Service) Replace(tr model.Trajectory) (int, error) {
	defer s.span(nil, "Replace").End()
	return s.inner.Replace(tr)
}

func (s *Service) Append(id string, tail []model.Sample) (int, error) {
	defer s.span(nil, "Append").End()
	return s.inner.Append(id, tail)
}

func (s *Service) TrimBefore(cutoff float64) (engine.TrimStats, error) {
	defer s.span(nil, "TrimBefore").End()
	return s.inner.TrimBefore(cutoff)
}

func (s *Service) Get(id string) (model.Trajectory, bool) {
	defer s.span(nil, "Get").End()
	return s.inner.Get(id)
}

func (s *Service) Len() int      { return s.inner.Len() }
func (s *Service) IDs() []string { return s.inner.IDs() }

func (s *Service) Subset(ids []string) (model.Dataset, error) {
	defer s.span(nil, "Subset").End()
	return s.inner.Subset(ids)
}

func (s *Service) TopK(ctx context.Context, query model.Trajectory, k int) ([]engine.Match, error) {
	defer s.span(ctx, "TopK").End()
	return s.inner.TopK(ctx, query, k)
}

func (s *Service) TopKOpts(ctx context.Context, query model.Trajectory, opts engine.TopKOptions) ([]engine.Match, error) {
	defer s.span(ctx, "TopK").End()
	return s.inner.TopKOpts(ctx, query, opts)
}

func (s *Service) ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error) {
	defer s.span(ctx, "ScoreBatch").End()
	return s.inner.ScoreBatch(ctx, rows, cols, mask)
}

func (s *Service) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	defer s.span(ctx, "ScoreBatchMin").End()
	return s.inner.ScoreBatchMin(ctx, rows, cols, mask, minScore)
}

func (s *Service) Scorer() engine.Scorer                { return s.inner.Scorer() }
func (s *Service) Workers() int                         { return s.inner.Workers() }
func (s *Service) Profiled() bool                       { return s.inner.Profiled() }
func (s *Service) CacheStats() engine.CacheStats        { return s.inner.CacheStats() }
func (s *Service) ProfileCacheStats() engine.CacheStats { return s.inner.ProfileCacheStats() }
func (s *Service) PruneStats() engine.PruneStats        { return s.inner.PruneStats() }
func (s *Service) StoreStats() store.Stats              { return s.inner.StoreStats() }
func (s *Service) Recovery() (store.RecoveryInfo, bool) { return s.inner.Recovery() }
func (s *Service) WarmLoaded() int                      { return s.inner.WarmLoaded() }
func (s *Service) Close() error                         { return s.inner.Close() }

func (s *Service) Snapshot() error {
	defer s.span(nil, "Snapshot").End()
	return s.inner.Snapshot()
}

// Corpus decorates a *store.Store with a span around every mutation and
// lookup. It forwards the optional capabilities the engine type-asserts on
// its corpus — store.SidecarCorpus and Snapshot — so warm restarts and
// forced snapshots behave exactly as on the bare store.
type Corpus struct {
	inner *store.Store
	t     *Tracer
}

// WrapCorpus returns st with spans named "store.<Method>".
func WrapCorpus(t *Tracer, st *store.Store) *Corpus { return &Corpus{inner: st, t: t} }

var (
	_ store.Corpus        = (*Corpus)(nil)
	_ store.SidecarCorpus = (*Corpus)(nil)
	_ engine.Service      = (*Service)(nil)
	_ engine.ShardStater  = shardedService{}
)

func (c *Corpus) span(method string) *Active {
	return c.t.Start(nil, LayerStore, "store."+method)
}

func (c *Corpus) Add(tr model.Trajectory) (store.Ref, error) {
	defer c.span("Add").End()
	return c.inner.Add(tr)
}

func (c *Corpus) Replace(tr model.Trajectory) (store.Ref, error) {
	defer c.span("Replace").End()
	return c.inner.Replace(tr)
}

func (c *Corpus) Append(id string, tail []model.Sample) (store.Ref, error) {
	defer c.span("Append").End()
	return c.inner.Append(id, tail)
}

func (c *Corpus) Remove(id string) error {
	defer c.span("Remove").End()
	return c.inner.Remove(id)
}

func (c *Corpus) Get(id string) (model.Trajectory, bool) {
	defer c.span("Get").End()
	return c.inner.Get(id)
}

func (c *Corpus) Len() int                                        { return c.inner.Len() }
func (c *Corpus) IDs() []string                                   { return c.inner.IDs() }
func (c *Corpus) ForEach(fn func(store.Ref) error) error          { return c.inner.ForEach(fn) }
func (c *Corpus) Bounds() (geo.Rect, bool)                        { return c.inner.Bounds() }
func (c *Corpus) Stats() store.Stats                              { return c.inner.Stats() }
func (c *Corpus) Recovery() (store.RecoveryInfo, bool)            { return c.inner.Recovery() }
func (c *Corpus) Close() error                                    { return c.inner.Close() }
func (c *Corpus) SetSidecarSource(fn func() []store.SidecarEntry) { c.inner.SetSidecarSource(fn) }
func (c *Corpus) WarmEntries() []store.SidecarEntry               { return c.inner.WarmEntries() }

func (c *Corpus) Snapshot() error {
	defer c.span("Snapshot").End()
	return c.inner.Snapshot()
}
