package engine_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// identityEngines builds the two engine kinds a server runs: one exact
// Engine and an exact 2-shard Sharded (the served default).
func identityEngines(t *testing.T) map[string]engine.Service {
	t.Helper()
	single, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(testScorer(t), engine.ShardedOptions{
		Shards:       2,
		ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = single.Close()
		_ = sharded.Close()
	})
	return map[string]engine.Service{"single": single, "sharded": sharded}
}

// identityCorpus is 12 overlapping walks, so pruned queries both prune
// and refine.
func identityCorpus() []model.Trajectory {
	var out []model.Trajectory
	for i := 0; i < 12; i++ {
		out = append(out, walk(fmt.Sprintf("t%02d", i), 100+float64(i)*9, 100, 4, 10, 10))
	}
	return out
}

// cacheState is both caches' entry count and misses.
type cacheState struct{ prepSize, profSize, prepMisses, profMisses int }

func cacheStateOf(svc engine.Service) cacheState {
	p, f := svc.CacheStats(), svc.ProfileCacheStats()
	return cacheState{p.Size, f.Size, int(p.Misses), int(f.Misses)}
}

// TestByIDRequestsShareRecordState pins one derived-state identity per
// corpus record: once candidate scans have built every record's prepared
// state and profile, by-ID requests — a top-k whose query is a Get result,
// batches over Get and Subset results, floored and not — resolve those
// same entries, adding no entry and no miss on either engine kind.
func TestByIDRequestsShareRecordState(t *testing.T) {
	ctx := context.Background()
	corpus := identityCorpus()
	outside := walk("outside", 130, 100, 4, 10, 10)
	for name, svc := range identityEngines(t) {
		t.Run(name, func(t *testing.T) {
			for _, tr := range corpus {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			// Candidate scans decode every record from its Ref: the
			// exhaustive top-k prepares each one, the pruned one
			// profiles each one.
			for _, exhaustive := range []bool{true, false} {
				if _, err := svc.TopKOpts(ctx, outside, engine.TopKOptions{K: 3, MinScore: math.Inf(-1), Exhaustive: exhaustive}); err != nil {
					t.Fatal(err)
				}
			}
			warm := cacheStateOf(svc)

			for _, tr := range corpus {
				q, ok := svc.Get(tr.ID)
				if !ok {
					t.Fatalf("Get(%q) missed", tr.ID)
				}
				if _, err := svc.TopK(ctx, q, 3); err != nil {
					t.Fatal(err)
				}
			}
			all, err := svc.Subset(nil)
			if err != nil {
				t.Fatal(err)
			}
			row, _ := svc.Get(corpus[5].ID)
			for _, floor := range []float64{math.Inf(-1), 0.05} {
				if _, err := svc.ScoreBatchMin(ctx, all[:4], all, nil, floor); err != nil {
					t.Fatal(err)
				}
				if _, err := svc.ScoreBatchMin(ctx, model.Dataset{row}, all, nil, floor); err != nil {
					t.Fatal(err)
				}
			}
			if st := svc.PruneStats(); st.Refined+st.EarlyExited == 0 || st.BoundPruned == 0 {
				t.Fatalf("the queries neither refined nor pruned: %+v", st)
			}
			if got := cacheStateOf(svc); got != warm {
				t.Fatalf("by-ID requests changed the caches: %+v after warm-up, %+v after", warm, got)
			}
		})
	}
}

// TestAppendKeepsOneEntryPerRecord is the standing-evaluation shape: each
// round appends to a stream, Gets it and scores it against 4 members.
// An append forgets the stream's only copy, so after the first round both
// caches hold exactly one entry per record.
func TestAppendKeepsOneEntryPerRecord(t *testing.T) {
	ctx := context.Background()
	for name, svc := range identityEngines(t) {
		t.Run(name, func(t *testing.T) {
			ids := []string{"stream"}
			if _, err := svc.Add(walk("stream", 100, 100, 4, 10, 6)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				id := fmt.Sprintf("m%d", i)
				ids = append(ids, id)
				if _, err := svc.Add(walk(id, 96+float64(i)*6, 100, 4, 10, 40)); err != nil {
					t.Fatal(err)
				}
			}
			var first cacheState
			for round := 0; round < 20; round++ {
				cur, _ := svc.Get("stream")
				if _, err := svc.Append("stream", tailOf(cur, 1)); err != nil {
					t.Fatal(err)
				}
				grown, _ := svc.Get("stream")
				members, err := svc.Subset(ids[1:])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.ScoreBatchMin(ctx, model.Dataset{grown}, members, nil, 0.1); err != nil {
					t.Fatal(err)
				}
				st := cacheStateOf(svc)
				if round == 0 {
					first = st
					if st.prepSize != len(ids) || st.profSize != len(ids) {
						t.Fatalf("first round caches %d prepared and %d profile entries for %d records", st.prepSize, st.profSize, len(ids))
					}
					continue
				}
				if st.prepSize != first.prepSize || st.profSize != first.profSize {
					t.Fatalf("round %d: %d prepared and %d profile entries, %d and %d after the first round",
						round, st.prepSize, st.profSize, first.prepSize, first.profSize)
				}
			}
		})
	}
}

// TestGetReturnsOneArrayPerGeneration pins the record cache's by-ID
// decode: repeated lookups of an unchanged record, by Get or Subset,
// return the same backing array, and after an Append or a Replace the
// record's next lookup returns a new one holding the new generation.
func TestGetReturnsOneArrayPerGeneration(t *testing.T) {
	for name, svc := range identityEngines(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := svc.Add(walk("a", 100, 100, 4, 10, 6)); err != nil {
				t.Fatal(err)
			}
			get := func(n int) *model.Sample {
				t.Helper()
				tr, ok := svc.Get("a")
				if !ok || len(tr.Samples) != n {
					t.Fatalf("Get(a) = %d samples, %v; want %d", len(tr.Samples), ok, n)
				}
				return &tr.Samples[0]
			}
			first := get(6)
			if again := get(6); again != first {
				t.Fatal("a repeated Get of an unchanged record returned a new array")
			}
			if sub, err := svc.Subset([]string{"a"}); err != nil || &sub[0].Samples[0] != first {
				t.Fatalf("Subset of an unchanged record: %v; want Get's array", err)
			}
			cur, _ := svc.Get("a")
			if _, err := svc.Append("a", tailOf(cur, 1)); err != nil {
				t.Fatal(err)
			}
			grown := get(7)
			if grown == first {
				t.Fatal("Get after an Append returned the superseded array")
			}
			if again := get(7); again != grown {
				t.Fatal("a repeated Get after an Append returned a new array")
			}
			if _, err := svc.Replace(walk("a", 112, 100, 4, 10, 7)); err != nil {
				t.Fatal(err)
			}
			if replaced := get(7); replaced == grown || *replaced == *grown {
				t.Fatal("Get after a Replace returned the superseded array")
			}
		})
	}
}

// TestHandoutsStayWithinDecodeCache bounds what the record cache keeps
// alive. Over 2×RecordCap+12 records, a whole-corpus Subset and a Get of
// each record leave at most RecordCap decoded arrays in every engine, and
// the most recent handouts still resolve their records' shared state.
func TestHandoutsStayWithinDecodeCache(t *testing.T) {
	ctx := context.Background()
	type caching interface {
		engine.Service
		CachedRecords() []int
	}
	corpus := make([]model.Trajectory, 2*engine.RecordCap+12)
	for i := range corpus {
		corpus[i] = walk(fmt.Sprintf("w%04d", i), 100+float64(i%40)*20, 100+float64(i/40)*15, 4, 10, 3)
	}
	outside := walk("outside", 130, 100, 4, 10, 10)
	for name, svc := range identityEngines(t) {
		svc := svc.(caching)
		t.Run(name, func(t *testing.T) {
			bounded := func(after string) {
				t.Helper()
				for i, n := range svc.CachedRecords() {
					if n > engine.RecordCap {
						t.Fatalf("after %s: engine %d holds %d record arrays, the cap is %d", after, i, n, engine.RecordCap)
					}
				}
			}
			for _, tr := range corpus {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := svc.Subset(nil); err != nil {
				t.Fatal(err)
			}
			bounded("a whole-corpus Subset")
			if name == "single" {
				if n := svc.CachedRecords()[0]; n != engine.RecordCap {
					t.Fatalf("a whole-corpus Subset of %d records left %d arrays, want the cache full at %d", len(corpus), n, engine.RecordCap)
				}
			}
			for _, tr := range corpus {
				if _, ok := svc.Get(tr.ID); !ok {
					t.Fatalf("Get(%q) missed", tr.ID)
				}
				bounded("Get(" + tr.ID + ")")
			}
			for _, exhaustive := range []bool{true, false} {
				if _, err := svc.TopKOpts(ctx, outside, engine.TopKOptions{K: 3, MinScore: math.Inf(-1), Exhaustive: exhaustive}); err != nil {
					t.Fatal(err)
				}
			}
			warm := cacheStateOf(svc)
			n := len(corpus)
			recent, err := svc.Subset([]string{corpus[n-4].ID, corpus[n-3].ID, corpus[n-2].ID, corpus[n-1].ID})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.TopK(ctx, recent[3], 3); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.ScoreBatchMin(ctx, recent, recent, nil, math.Inf(-1)); err != nil {
				t.Fatal(err)
			}
			if got := cacheStateOf(svc); got != warm {
				t.Fatalf("the most recent handouts missed their records' state: %+v after warm-up, %+v after", warm, got)
			}
		})
	}
}

// TestReplaceRaceKeepsGenerationsApart replaces one record, alternating
// between two variants of equal ID and length, while readers Get it and
// score it. (ID, length) then collide, so only the record generation keeps
// the variants' derived state apart: every score must be bit-identical to
// a fresh scoring of the variant the reader holds. Run it under -race.
func TestReplaceRaceKeepsGenerationsApart(t *testing.T) {
	ctx := context.Background()
	variants := [2]model.Trajectory{walk("x", 100, 100, 4, 10, 10), walk("x", 112, 100, 4, 10, 10)}
	partner := walk("p", 104, 100, 4, 10, 10)
	var want [2]float64
	for v, tr := range variants {
		m, err := engine.ScoreMatrix(ctx, testScorer(t), model.Dataset{tr}, model.Dataset{partner}, nil, math.Inf(-1), 1)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = m[0][0]
	}
	if want[0] == want[1] || want[0] <= 0 || want[1] <= 0 {
		t.Fatalf("variant scores %v: the test needs distinct positive scores", want)
	}
	variantOf := func(tr model.Trajectory) int {
		if tr.Samples[0].Loc.X == variants[0].Samples[0].Loc.X {
			return 0
		}
		return 1
	}
	for name, svc := range identityEngines(t) {
		t.Run(name, func(t *testing.T) {
			for _, tr := range []model.Trajectory{variants[0], partner, walk("y", 140, 100, 4, 10, 10)} {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			// Readers make a fixed number of checks; the writer replaces
			// until they are done, so every check races a replacement.
			const checks = 25
			done := make(chan struct{})
			const readers = 3
			errs := make(chan error, 1+readers) // each goroutine sends at most once
			var writerDone, readersDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				for i := 1; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if _, err := svc.Replace(variants[i%2]); err != nil {
						errs <- err
						return
					}
				}
			}()
			check := func() error {
				tr, ok := svc.Get("x")
				p, ok2 := svc.Get("p")
				if !ok || !ok2 {
					return fmt.Errorf("Get missed a resident record")
				}
				w := want[variantOf(tr)]
				for _, floor := range []float64{math.Inf(-1), 0} {
					m, err := svc.ScoreBatchMin(ctx, model.Dataset{tr}, model.Dataset{p}, nil, floor)
					if err != nil {
						return err
					}
					if m[0][0] != w {
						return fmt.Errorf("floor %v: scored %v for variant %d, fresh scoring gives %v", floor, m[0][0], variantOf(tr), w)
					}
				}
				matches, err := svc.TopK(ctx, tr, 3)
				if err != nil {
					return err
				}
				for _, mt := range matches {
					if mt.ID == "p" && mt.Score != w {
						return fmt.Errorf("top-k scored %v for variant %d, fresh scoring gives %v", mt.Score, variantOf(tr), w)
					}
				}
				return nil
			}
			for r := 0; r < readers; r++ {
				readersDone.Add(1)
				go func() {
					defer readersDone.Done()
					for i := 0; i < checks; i++ {
						if err := check(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			readersDone.Wait()
			close(done)
			writerDone.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmRestartServesByIDQuery pins that warm-loaded profiles serve the
// query side too: after a warm restart, the first top-k whose query is a
// Get result finds the query's profile among the warm-loaded ones, so the
// profile cache sees no miss at all.
func TestWarmRestartServesByIDQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts engine.Options
	}{
		{"profiled", engine.Options{Profile: &core.ProfileOptions{BucketSeconds: 30}}},
		{"exact", engine.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			warmDir(t, dir, tc.opts, walk("q", 120, 100, 4, 10, 8))
			st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			o := tc.opts
			o.Corpus = st
			e, err := engine.New(testScorer(t), o)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if e.WarmLoaded() != 10 {
				t.Fatalf("WarmLoaded=%d, want 10", e.WarmLoaded())
			}
			q, ok := e.Get("t03")
			if !ok {
				t.Fatal("Get(t03) missed")
			}
			if _, err := e.TopK(context.Background(), q, 4); err != nil {
				t.Fatal(err)
			}
			if s := e.ProfileCacheStats(); s.Misses != 0 || s.Size != 10 {
				t.Fatalf("first by-ID top-k after the warm restart: profile cache %+v, want no miss", s)
			}
		})
	}
}

// TestCacheBytesCountKDETable pins that the cache footprint counts a
// trajectory's KDE mass table, which its first interpolation builds after
// the entry was cached: bounding a pair builds none, refining it builds
// both tables, and the prepared cache's bytes grow by at least one
// 2,048-bin table each.
func TestCacheBytesCountKDETable(t *testing.T) {
	ctx := context.Background()
	e, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, tr := range []model.Trajectory{walk("a", 100, 100, 4, 10, 10), walk("b", 104, 100, 4, 7, 14)} {
		if _, err := e.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := e.Subset(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Under an unreachable floor every pair is pruned by its bound.
	if _, err := e.ScoreBatchMin(ctx, ds[:1], ds[1:], nil, math.MaxFloat64); err != nil {
		t.Fatal(err)
	}
	if st := e.PruneStats(); st.BoundPruned != 1 {
		t.Fatalf("prune stats %+v, want the pair bound-pruned", st)
	}
	before := e.CacheStats()
	m, err := e.ScoreBatchMin(ctx, ds[:1], ds[1:], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.PruneStats(); st.Refined != 1 || m[0][0] <= 0 {
		t.Fatalf("score %v, prune stats %+v; the pair must be refined", m[0][0], st)
	}
	after := e.CacheStats()
	if after.Size != before.Size || after.Misses != before.Misses {
		t.Fatalf("scoring rebuilt cached state: %+v then %+v", before, after)
	}
	const table = 2048 * 8
	if grown := after.Bytes - before.Bytes; grown < 2*table {
		t.Fatalf("prepared cache bytes grew by %d after interpolating both trajectories, want at least %d", grown, 2*table)
	}
}

// TestPrunedTopKRefinesWithBoundPassPrepared pins that refinement reuses
// the prepared state the bound pass built a missing profile from: with a
// 2-entry cache, a first pruned top-k prepares the query and each
// candidate once, however many candidates it refines.
func TestPrunedTopKRefinesWithBoundPassPrepared(t *testing.T) {
	e, err := engine.New(testScorer(t), engine.Options{CacheSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	corpus := identityCorpus()
	for _, tr := range corpus {
		if _, err := e.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.TopK(context.Background(), walk("q", 130, 100, 4, 10, 10), 3); err != nil {
		t.Fatal(err)
	}
	if st := e.PruneStats(); st.Refined+st.EarlyExited == 0 {
		t.Fatalf("nothing was refined: %+v", st)
	}
	if got, want := e.CacheStats().Misses, uint64(1+len(corpus)); got != want {
		t.Fatalf("%d prepared misses, want %d: the query and each candidate once", got, want)
	}
}
