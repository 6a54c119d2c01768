package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// newShardedPair builds a single engine and a functionally identical
// sharded coordinator; optsFn must return fresh Options on every call so
// each shard gets its own store and caches.
func newShardedPair(t *testing.T, shards int, optsFn func() engine.Options) (*engine.Engine, *engine.Sharded) {
	t.Helper()
	scorer := testScorer(t)
	single, err := engine.New(scorer, optsFn())
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:       shards,
		ShardOptions: func(int) (engine.Options, error) { return optsFn(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = single.Close()
		_ = sharded.Close()
	})
	return single, sharded
}

// goldenCorpus is a mixed corpus: a cluster overlapping the golden query
// (positive, distinct scores), exact duplicates of one member (bit-equal
// score ties), and a far group (ties at the zero/no-overlap floor). IDs
// sort in insertion order, so single-engine slot order equals ID order
// and the two tie-break rules agree.
func goldenCorpus() []model.Trajectory {
	var trs []model.Trajectory
	for i := 0; i < 12; i++ {
		trs = append(trs, walk(fmt.Sprintf("near-%02d", i), 100+float64(i)*12, 100+float64(i)*7, 5, 10, 10))
	}
	for i := 0; i < 4; i++ {
		dup := walk(fmt.Sprintf("twin-%02d", i), 130, 110, 5, 10, 10)
		trs = append(trs, dup)
	}
	for i := 0; i < 8; i++ {
		trs = append(trs, walk(fmt.Sprintf("zfar-%02d", i), 950+float64(i)*5, 1000, 5, 10, 10))
	}
	return trs
}

func goldenQuery() model.Trajectory {
	return walk("query", 120, 105, 5, 10, 10)
}

func fillPair(t *testing.T, single, sharded interface {
	Add(model.Trajectory) (int, error)
}, trs []model.Trajectory) {
	t.Helper()
	for _, tr := range trs {
		if _, err := single.Add(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// diffMatches compares two match lists on (ID, Score) with bit-exact
// scores. Slots are intentionally ignored: they are shard-local.
func diffMatches(t *testing.T, label string, got, want []engine.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d\n got=%v\nwant=%v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: match %d = {%s %v}, want {%s %v}", label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

func diffMatrix(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cols, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestShardedTopKEquivalence is the golden suite: for every engine
// configuration (exact, pruned through a thrashing cache, profiled,
// pruning disabled) the sharded coordinator must return the same (ID,
// Score) sequence as a single engine over the same corpus — bit-identical
// scores, identical tie order (the corpus is built so slot order equals ID
// order).
func TestShardedTopKEquivalence(t *testing.T) {
	configs := []struct {
		name   string
		optsFn func() engine.Options
	}{
		{"exact", func() engine.Options { return engine.Options{} }},
		// A cache far smaller than the corpus evicts bound profiles while
		// a query still needs them, as a spilling server does.
		{"pruned", func() engine.Options { return engine.Options{CacheSize: 4} }},
		{"profiled", func() engine.Options {
			return engine.Options{Profile: &core.ProfileOptions{}}
		}},
		{"unpruned", func() engine.Options { return engine.Options{DisablePruning: true} }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			single, sharded := newShardedPair(t, 4, cfg.optsFn)
			fillPair(t, single, sharded, goldenCorpus())
			query := goldenQuery()
			ctx := context.Background()

			for _, k := range []int{1, 3, 5, 24, 50} {
				for _, opts := range []engine.TopKOptions{
					{K: k, MinScore: math.Inf(-1)},
					{K: k, MinScore: 0.01},
					{K: k, MinScore: math.Inf(-1), Exhaustive: true},
				} {
					label := fmt.Sprintf("k=%d minScore=%v exhaustive=%v", k, opts.MinScore, opts.Exhaustive)
					want, err := single.TopKOpts(ctx, query, opts)
					if err != nil {
						t.Fatalf("%s: single: %v", label, err)
					}
					got, err := sharded.TopKOpts(ctx, query, opts)
					if err != nil {
						t.Fatalf("%s: sharded: %v", label, err)
					}
					diffMatches(t, label, got, want)
				}
			}

			// Invalid queries fail identically.
			if _, err := sharded.TopK(ctx, model.Trajectory{ID: "empty"}, 3); !errors.Is(err, engine.ErrNoQuery) {
				t.Fatalf("invalid query error = %v, want ErrNoQuery", err)
			}
			if res, err := sharded.TopK(ctx, query, 0); err != nil || len(res) != 0 {
				t.Fatalf("k=0 → (%v, %v), want empty", res, err)
			}
		})
	}
}

// TestTopKHugeKReturnsWholeCorpus pins that no top-k buffer is sized by
// the caller's k: K = 1<<50 and K = math.MaxInt, floored and unfloored,
// return exactly what K = len(corpus) returns, the whole ranked corpus,
// on a single engine and on a 2-shard coordinator.
func TestTopKHugeKReturnsWholeCorpus(t *testing.T) {
	ctx := context.Background()
	corpus := goldenCorpus()
	single, sharded := newShardedPair(t, 2, func() engine.Options { return engine.Options{} })
	fillPair(t, single, sharded, corpus)
	for name, svc := range map[string]engine.Service{"single": single, "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			for _, floor := range []float64{math.Inf(-1), 0} {
				want, err := svc.TopKOpts(ctx, goldenQuery(), engine.TopKOptions{K: len(corpus), MinScore: floor})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(corpus) {
					t.Fatalf("floor %v: K=len(corpus) returned %d of %d records", floor, len(want), len(corpus))
				}
				for _, k := range []int{1 << 50, math.MaxInt} {
					got, err := svc.TopKOpts(ctx, goldenQuery(), engine.TopKOptions{K: k, MinScore: floor})
					if err != nil {
						t.Fatalf("floor %v, K=%d: %v", floor, k, err)
					}
					diffMatches(t, fmt.Sprintf("floor %v, K=%d", floor, k), got, want)
				}
			}
		})
	}
}

// TestShardedScoreBatchEquivalence checks that fanned row blocks produce
// bit-identical matrices, with and without a mask and a score floor.
func TestShardedScoreBatchEquivalence(t *testing.T) {
	single, sharded := newShardedPair(t, 4, func() engine.Options { return engine.Options{} })
	ctx := context.Background()

	var rows, cols model.Dataset
	for i := 0; i < 7; i++ {
		rows = append(rows, walk(fmt.Sprintf("r-%d", i), 100+float64(i)*30, 120, 5, 10, 9))
	}
	for j := 0; j < 5; j++ {
		cols = append(cols, walk(fmt.Sprintf("c-%d", j), 110+float64(j)*40, 110, 5, 10, 9))
	}
	mask := make([][]bool, len(rows))
	for i := range mask {
		mask[i] = make([]bool, len(cols))
		for j := range mask[i] {
			mask[i][j] = (i+j)%3 != 0
		}
	}

	for _, tc := range []struct {
		label string
		mask  [][]bool
		min   float64
	}{
		{"unmasked", nil, math.Inf(-1)},
		{"masked", mask, math.Inf(-1)},
		{"min", nil, 0.05},
		{"masked+min", mask, 0.05},
	} {
		want, err := single.ScoreBatchMin(ctx, rows, cols, tc.mask, tc.min)
		if err != nil {
			t.Fatalf("%s: single: %v", tc.label, err)
		}
		got, err := sharded.ScoreBatchMin(ctx, rows, cols, tc.mask, tc.min)
		if err != nil {
			t.Fatalf("%s: sharded: %v", tc.label, err)
		}
		diffMatrix(t, tc.label, got, want)
	}

	want, err := single.ScoreBatch(ctx, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.ScoreBatch(ctx, rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffMatrix(t, "ScoreBatch", got, want)

	// Single-row and empty inputs exercise the block-partitioning edges.
	got, err = sharded.ScoreBatch(ctx, rows[:1], cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffMatrix(t, "one-row", got, want[:1])
	if out, err := sharded.ScoreBatch(ctx, nil, cols, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty rows → (%v, %v)", out, err)
	}
}

// TestShardedLinkingEquivalence drives the greedy batch linker through
// both implementations — *Sharded satisfies linking.Batcher exactly like
// *Engine does.
func TestShardedLinkingEquivalence(t *testing.T) {
	single, sharded := newShardedPair(t, 3, func() engine.Options { return engine.Options{} })
	ctx := context.Background()

	var d1, d2 model.Dataset
	for i := 0; i < 6; i++ {
		d1 = append(d1, walk(fmt.Sprintf("a-%d", i), 100+float64(i)*50, 100, 5, 10, 9))
		d2 = append(d2, walk(fmt.Sprintf("b-%d", i), 105+float64(i)*50, 102, 5, 10, 9))
	}
	opts := linking.Options{MinScore: 0.01}

	want, err := linking.GreedyLinkBatch(ctx, single, d1, d2, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := linking.GreedyLinkBatch(ctx, sharded, d1, d2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d links, want %d\n got=%v\nwant=%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].I != want[i].I || got[i].J != want[i].J ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("link %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShardedIDsSubsetOrdering pins the Service ordering contracts: IDs
// ascending via sorted merge, Subset preserving request order, empty
// Subset meaning whole-corpus-sorted, unknown IDs failing with
// ErrNotFound.
func TestShardedIDsSubsetOrdering(t *testing.T) {
	single, sharded := newShardedPair(t, 4, func() engine.Options { return engine.Options{} })
	// Insert deliberately out of ID order.
	corpus := goldenCorpus()
	for i, j := 0, len(corpus)-1; i < j; i, j = i+1, j-1 {
		corpus[i], corpus[j] = corpus[j], corpus[i]
	}
	fillPair(t, single, sharded, corpus)

	ids := sharded.IDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("IDs not ascending: %v", ids)
	}
	want := single.IDs()
	if len(ids) != len(want) {
		t.Fatalf("IDs length %d, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}

	whole, err := sharded.Subset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != len(ids) {
		t.Fatalf("Subset(nil) has %d trajectories, want %d", len(whole), len(ids))
	}
	for i, tr := range whole {
		if tr.ID != ids[i] {
			t.Fatalf("Subset(nil)[%d].ID = %s, want %s (sorted order)", i, tr.ID, ids[i])
		}
	}

	// Explicit request order is preserved even when it interleaves shards.
	req := []string{"zfar-03", "near-00", "twin-02", "near-11", "zfar-00"}
	sub, err := sharded.Subset(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range sub {
		if tr.ID != req[i] {
			t.Fatalf("Subset[%d].ID = %s, want %s (request order)", i, tr.ID, req[i])
		}
	}

	if _, err := sharded.Subset([]string{"near-00", "missing"}); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Subset with unknown ID: %v, want ErrNotFound", err)
	}
}

// TestShardedMutationRouting checks the routed mutation surface: errors
// match the single engine's sentinels, Replace lands on the owning shard,
// and the per-shard lengths sum to Len.
func TestShardedMutationRouting(t *testing.T) {
	_, sharded := newShardedPair(t, 4, func() engine.Options { return engine.Options{} })
	corpus := goldenCorpus()
	for _, tr := range corpus {
		if _, err := sharded.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sharded.Add(corpus[0]); err == nil {
		t.Error("duplicate Add accepted")
	}
	if _, err := sharded.Add(model.Trajectory{Samples: corpus[0].Samples}); err == nil {
		t.Error("empty-ID Add accepted")
	}
	if err := sharded.Remove("missing"); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("Remove(missing) = %v, want ErrNotFound", err)
	}
	if got, ok := sharded.Get("twin-01"); !ok || got.ID != "twin-01" {
		t.Fatalf("Get(twin-01) = %v, %v", got, ok)
	}
	if _, ok := sharded.Get("missing"); ok {
		t.Error("Get(missing) found a trajectory")
	}

	// Replace relocates a trajectory's geometry but must stay on the
	// shard that owns the ID — Get must observe the new samples.
	moved := walk("near-05", 900, 900, 5, 10, 10)
	if _, err := sharded.Replace(moved); err != nil {
		t.Fatal(err)
	}
	if got, _ := sharded.Get("near-05"); got.Samples[0].Loc.X != 900 {
		t.Fatalf("Replace not visible: %v", got.Samples[0])
	}
	// Replace of an absent ID adds.
	if _, err := sharded.Replace(walk("fresh", 50, 50, 5, 10, 8)); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Remove("near-00"); err != nil {
		t.Fatal(err)
	}

	wantLen := len(corpus) + 1 - 1
	if sharded.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", sharded.Len(), wantLen)
	}
	sum := 0
	for _, st := range sharded.ShardStats() {
		sum += st.Len
	}
	if sum != wantLen {
		t.Fatalf("sum of shard lengths = %d, want %d", sum, wantLen)
	}
}

// TestShardedStatsAggregation checks that the rolled-up counters equal
// the sum of the per-shard snapshots the server exposes.
func TestShardedStatsAggregation(t *testing.T) {
	_, sharded := newShardedPair(t, 4, func() engine.Options { return engine.Options{} })
	for _, tr := range goldenCorpus() {
		if _, err := sharded.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// Small k and a finite floor so each shard's candidate set outsizes k
	// and the filter-and-refine path (the one that counts) engages.
	for i := 0; i < 3; i++ {
		if _, err := sharded.TopKOpts(ctx, goldenQuery(), engine.TopKOptions{K: 2, MinScore: 0.01}); err != nil {
			t.Fatal(err)
		}
	}

	shards := sharded.ShardStats()
	if len(shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(shards))
	}
	var prune engine.PruneStats
	var cache engine.CacheStats
	var arena int64
	lens := 0
	for i, st := range shards {
		if st.Shard != i {
			t.Fatalf("ShardStats[%d].Shard = %d", i, st.Shard)
		}
		prune.Considered += st.Prune.Considered
		prune.BoundPruned += st.Prune.BoundPruned
		prune.EarlyExited += st.Prune.EarlyExited
		prune.Refined += st.Prune.Refined
		cache.Hits += st.Cache.Hits
		cache.Misses += st.Cache.Misses
		arena += st.Store.ArenaBytes
		lens += st.Len
	}
	if got := sharded.PruneStats(); got != prune {
		t.Fatalf("PruneStats rollup %+v != shard sum %+v", got, prune)
	}
	if got := sharded.CacheStats(); got.Hits != cache.Hits || got.Misses != cache.Misses {
		t.Fatalf("CacheStats rollup %+v != shard sum %+v", got, cache)
	}
	if got := sharded.StoreStats(); got.ArenaBytes != arena {
		t.Fatalf("StoreStats.ArenaBytes rollup %d != shard sum %d", got.ArenaBytes, arena)
	}
	if lens != sharded.Len() {
		t.Fatalf("shard length sum %d != Len %d", lens, sharded.Len())
	}
	if prune.Considered == 0 {
		t.Fatal("pruned queries recorded no considered candidates")
	}
}

// TestShardedTieOrderAcrossShardCounts pins the coordinator's tie-break:
// trajectories with identical geometry score bit-equal, and the merged
// order among them must be ascending ID regardless of how many shards
// the corpus is split into.
func TestShardedTieOrderAcrossShardCounts(t *testing.T) {
	scorer := testScorer(t)
	corpus := goldenCorpus()
	query := goldenQuery()
	ctx := context.Background()

	var baseline []engine.Match
	for _, shards := range []int{2, 3, 5} {
		s, err := engine.NewSharded(scorer, engine.ShardedOptions{
			Shards:       shards,
			ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range corpus {
			if _, err := s.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.TopK(ctx, query, len(corpus))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				t.Fatalf("shards=%d: scores not descending at %d: %v", shards, i, got)
			}
			if got[i].Score == got[i-1].Score && got[i].ID <= got[i-1].ID {
				t.Fatalf("shards=%d: tie at %d not ID-ascending: %s then %s", shards, i, got[i-1].ID, got[i].ID)
			}
		}
		if baseline == nil {
			baseline = got
		} else {
			diffMatches(t, fmt.Sprintf("shards=%d vs baseline", shards), got, baseline)
		}
		_ = s.Close()
	}
}

// TestShardedConcurrentStress races cross-shard ingest, removal,
// replacement, snapshots, and scatter-gather queries against persistent
// shard stores; run under -race it guards the lock-free-across-shards
// claim. The final corpus must be internally consistent.
func TestShardedConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	const nShards = 4
	stores := make([]*store.Store, nShards)
	sharded, err := engine.NewSharded(testScorer(t), engine.ShardedOptions{
		Shards: nShards,
		ShardOptions: func(shard int) (engine.Options, error) {
			st, err := store.Open(store.ShardDir(dir, shard), store.Options{})
			if err != nil {
				return engine.Options{}, err
			}
			stores[shard] = st
			return engine.Options{Corpus: st}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sharded.Close() })

	seed := goldenCorpus()
	for _, tr := range seed {
		if _, err := sharded.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	query := goldenQuery()
	ctx := context.Background()
	const rounds = 40

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("stress-%d-%d", g, i)
				if _, err := sharded.Add(walk(id, float64(100+10*g), float64(100+i), 5, 10, 8)); err != nil {
					t.Error(err)
					return
				}
				if _, err := sharded.Replace(walk(id, float64(200+10*g), float64(100+i), 5, 10, 8)); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := sharded.Remove(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := sharded.TopKOpts(ctx, query, engine.TopKOptions{K: 5, MinScore: math.Inf(-1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := model.Dataset{query}
		for i := 0; i < rounds/2; i++ {
			if _, err := sharded.ScoreBatchMin(ctx, rows, model.Dataset{seed[0], seed[1]}, nil, 0.01); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			for _, st := range stores {
				if err := st.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()

	ids := sharded.IDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatal("IDs not sorted after stress")
	}
	if len(ids) != sharded.Len() {
		t.Fatalf("len(IDs) = %d, Len = %d", len(ids), sharded.Len())
	}
	// Every surviving odd-round stress ID must still resolve.
	for g := 0; g < 4; g++ {
		for i := 1; i < rounds; i += 2 {
			id := fmt.Sprintf("stress-%d-%d", g, i)
			if tr, ok := sharded.Get(id); !ok || tr.Samples[0].Loc.X != float64(200+10*g) {
				t.Fatalf("Get(%s) = %v, %v after stress", id, tr, ok)
			}
		}
	}
}
