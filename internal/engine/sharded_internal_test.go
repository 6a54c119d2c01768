package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// TestMatchHeapMergeOrderInvariance pins the coordinator's merge
// determinism at the mechanism: the same multiset of matches, offered in
// any arrival order (waves complete in nondeterministic interleavings),
// must produce the same sorted top-k under worseMergedMatch — descending
// score, float-equal ties ascending by trajectory ID.
func TestMatchHeapMergeOrderInvariance(t *testing.T) {
	matches := []Match{
		{ID: "a", Slot: 9, Score: 0.9},
		{ID: "b", Slot: 3, Score: 0.5},
		{ID: "c", Slot: 7, Score: 0.5},
		{ID: "d", Slot: 1, Score: 0.5},
		{ID: "e", Slot: 5, Score: 0.5},
		{ID: "f", Slot: 0, Score: 0.3},
		{ID: "g", Slot: 2, Score: 0.1},
		{ID: "h", Slot: 8, Score: 0.1},
		{ID: "i", Slot: 4, Score: 0},
		{ID: "j", Slot: 6, Score: 0},
	}
	for _, k := range []int{1, 4, 5, 10, 20} {
		var want []Match
		for seed := int64(0); seed < 8; seed++ {
			perm := append([]Match(nil), matches...)
			rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) {
				perm[i], perm[j] = perm[j], perm[i]
			})
			h := newMatchHeap(k, worseMergedMatch)
			for _, m := range perm {
				h.offer(m)
			}
			got := h.sorted()
			for i := 1; i < len(got); i++ {
				if got[i].Score > got[i-1].Score ||
					(got[i].Score == got[i-1].Score && got[i].ID <= got[i-1].ID) {
					t.Fatalf("k=%d seed=%d: order violated at %d: %v", k, seed, i, got)
				}
			}
			if want == nil {
				want = got
				wantLen := k
				if wantLen > len(matches) {
					wantLen = len(matches)
				}
				if len(want) != wantLen {
					t.Fatalf("k=%d: %d results, want %d", k, len(want), wantLen)
				}
				continue
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("k=%d seed=%d: result %d = %+v, want %+v (arrival-order dependent)", k, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWorseMergedMatch pins the comparator itself.
func TestWorseMergedMatch(t *testing.T) {
	cases := []struct {
		a, b Match
		want bool
	}{
		{Match{ID: "x", Score: 0.1}, Match{ID: "y", Score: 0.2}, true},
		{Match{ID: "x", Score: 0.2}, Match{ID: "y", Score: 0.1}, false},
		{Match{ID: "b", Score: 0.5}, Match{ID: "a", Score: 0.5}, true},
		{Match{ID: "a", Score: 0.5}, Match{ID: "b", Score: 0.5}, false},
	}
	for _, c := range cases {
		if got := worseMergedMatch(c.a, c.b); got != c.want {
			t.Errorf("worseMergedMatch(%+v, %+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestShardIndexStability pins the routing hash: FNV-1a over the ID bytes
// alone, so the same ID always lands on the same shard for a given shard
// count, and routing is independent of sample count or generation.
func TestShardIndexStability(t *testing.T) {
	s := &Sharded{shards: make([]*Engine, 8)}
	ids := []string{"", "a", "ped-0001", "taxi/42", "近接"}
	for _, id := range ids {
		first := s.shardIndex(id)
		if first < 0 || first >= 8 {
			t.Fatalf("shardIndex(%q) = %d out of range", id, first)
		}
		for i := 0; i < 3; i++ {
			if got := s.shardIndex(id); got != first {
				t.Fatalf("shardIndex(%q) unstable: %d then %d", id, first, got)
			}
		}
	}
	// Known FNV-1a vector: "a" hashes to 0xaf63dc4c8601ec8c.
	if got := s.shardIndex("a"); got != int(uint64(0xaf63dc4c8601ec8c)%8) {
		t.Fatalf("shardIndex(\"a\") = %d, want FNV-1a residue %d", got, uint64(0xaf63dc4c8601ec8c)%8)
	}
}

// exactScorer is the smallest MeasureScorer: exact STS through m.
type exactScorer struct{ m *core.Measure }

func (s exactScorer) Name() string                                 { return "STS" }
func (s exactScorer) Score(a, b model.Trajectory) (float64, error) { return s.m.Similarity(a, b) }
func (s exactScorer) Measure() *core.Measure                       { return s.m }

// TestCachedProfilesMatchScoringMode pins which profiles an engine caches:
// after a pruned top-k and a floored ScoreBatchMin, every profile cached by
// an exact Engine, and by each shard of an exact 2-shard Sharded, is
// bound-only — the filter reads nothing else — while every profile cached
// by a profiled Engine carries the entries it scores with.
func TestCachedProfilesMatchScoringMode(t *testing.T) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 1100, Y: 1100}), 25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	var corpus model.Dataset
	for i := 0; i < 12; i++ {
		tr := model.Trajectory{ID: fmt.Sprintf("t%02d", i)}
		for k := 0; k < 10; k++ {
			f := float64(k)
			tr.Samples = append(tr.Samples, model.Sample{T: 7*float64(i%3) + 10*f, Loc: geo.Point{X: 100 + 15*float64(i) + 4*f, Y: 100 + 3*f}})
		}
		corpus = append(corpus, tr)
	}
	newEngine := func(opts Options) *Engine {
		e, err := New(exactScorer{m}, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		return e
	}
	exact := newEngine(Options{})
	profiled := newEngine(Options{Profile: &core.ProfileOptions{BucketSeconds: 30}})
	sharded, err := NewSharded(exactScorer{m}, ShardedOptions{
		Shards:       2,
		ShardOptions: func(int) (Options, error) { return Options{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sharded.Close() })
	for _, c := range []struct {
		name       string
		svc        Service
		engines    []*Engine
		boundsOnly bool
	}{
		{"exact", exact, []*Engine{exact}, true},
		{"profiled", profiled, []*Engine{profiled}, false},
		{"sharded", sharded, sharded.shards, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, tr := range corpus {
				if _, err := c.svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			if _, err := c.svc.TopKOpts(ctx, corpus[0], TopKOptions{K: 3, MinScore: math.Inf(-1)}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.svc.ScoreBatchMin(ctx, corpus[:4], corpus[4:], nil, 0.01); err != nil {
				t.Fatal(err)
			}
			if st := c.svc.PruneStats(); st.Considered == 0 {
				t.Fatalf("no query took the pruned path: %+v", st)
			}
			cached := 0
			for i, e := range c.engines {
				e.profiles.each(func(k prepKey, p *core.Profile) {
					cached++
					if p.BoundsOnly() != c.boundsOnly || (p.NumBuckets() == 0) != c.boundsOnly {
						t.Errorf("engine %d caches %q with bound-only %v and %d entries, want bound-only %v",
							i, k.id, p.BoundsOnly(), p.NumBuckets(), c.boundsOnly)
					}
				})
			}
			if cached < len(corpus) {
				t.Fatalf("%d profiles cached, want at least the %d corpus records", cached, len(corpus))
			}
		})
	}
}
