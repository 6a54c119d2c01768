package engine_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

func testGrid(t *testing.T) *geo.Grid {
	t.Helper()
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 1100, Y: 1100}), 25)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testScorer(t *testing.T) *eval.STSScorer {
	t.Helper()
	m, err := core.NewSTS(testGrid(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	return eval.NewSTSScorer("STS", m)
}

// walk builds a straight trajectory of n samples starting at (x0, y0),
// advancing dx meters and dt seconds per sample.
func walk(id string, x0, y0, dx, dt float64, n int) model.Trajectory {
	tr := model.Trajectory{ID: id, Samples: make([]model.Sample, n)}
	for i := range tr.Samples {
		f := float64(i)
		tr.Samples[i] = model.Sample{Loc: geo.Point{X: x0 + f*dx, Y: y0}, T: f * dt}
	}
	return tr
}

func TestCorpusMutation(t *testing.T) {
	e, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := walk("a", 0, 0, 5, 10, 8)
	b := walk("b", 500, 500, 5, 10, 8)
	if _, err := e.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(a); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := e.Add(model.Trajectory{Samples: a.Samples}); err == nil {
		t.Error("empty ID accepted")
	}
	if e.Len() != 2 {
		t.Fatalf("Len=%d want 2", e.Len())
	}
	if got, ok := e.Get("b"); !ok || got.ID != "b" {
		t.Errorf("Get(b)=%v,%v", got, ok)
	}
	if err := e.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("a"); err == nil {
		t.Error("double Remove succeeded")
	}
	if _, ok := e.Get("a"); ok {
		t.Error("removed trajectory still present")
	}
	newB := walk("b", 600, 600, 5, 10, 8)
	if _, err := e.Replace(newB); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.Get("b"); got.Samples[0].Loc.X != 600 {
		t.Errorf("Replace did not swap trajectory: %v", got.Samples[0])
	}
	if _, err := e.Replace(walk("c", 0, 0, 5, 10, 8)); err != nil {
		t.Fatalf("Replace as insert: %v", err)
	}
	if e.Len() != 2 {
		t.Fatalf("Len=%d want 2 after replace-insert", e.Len())
	}
	ids := e.IDs()
	if len(ids) != 2 {
		t.Fatalf("IDs=%v", ids)
	}
}

func TestTopKMatchesDirectScoring(t *testing.T) {
	s := testScorer(t)
	e, err := engine.New(s, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := walk("q", 100, 100, 8, 15, 12)
	corpus := []model.Trajectory{
		walk("same", 104, 102, 8, 17, 10), // co-located with the query
		walk("near", 160, 100, 8, 15, 10), // same corridor, offset
		walk("far", 900, 900, 8, 15, 10),  // opposite corner
		walk("slow", 100, 140, 2, 40, 10), // crosses the query's area late
	}
	for _, tr := range corpus {
		if _, err := e.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := e.TopK(context.Background(), query, len(corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(corpus) {
		t.Fatalf("got %d matches want %d", len(matches), len(corpus))
	}
	if matches[0].ID != "same" {
		t.Errorf("best match %q want \"same\" (matches=%v)", matches[0].ID, matches)
	}
	for i, m := range matches {
		tr, _ := e.Get(m.ID)
		want, err := s.Score(query, tr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Score-want) > 1e-12 {
			t.Errorf("match %d (%s): engine score %v, direct score %v", i, m.ID, m.Score, want)
		}
		if i > 0 && matches[i-1].Score < m.Score {
			t.Errorf("matches not sorted: %v", matches)
		}
	}
	top2, err := e.TopK(context.Background(), query, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0] != matches[0] || top2[1] != matches[1] {
		t.Errorf("k truncation: %v vs %v", top2, matches[:2])
	}
}

func TestScoreBatchMaskSkipsPreparation(t *testing.T) {
	meas, err := core.NewSTS(testGrid(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	rows := model.Dataset{walk("r0", 100, 100, 5, 10, 8), walk("r1", 200, 200, 5, 10, 8)}
	cols := model.Dataset{walk("c0", 105, 100, 5, 10, 8), walk("c1", 800, 800, 5, 10, 8)}
	mask := [][]bool{{true, false}, {false, false}} // r1 and c1 never admissible
	for _, tc := range []struct {
		label  string
		scorer *eval.STSScorer
		floor  float64
		// profiles is the profile-cache miss count: the bound pass of a
		// floored exact engine and every profiled call build profiles.
		profiles uint64
	}{
		{"exact", eval.NewSTSScorer("STS", meas), math.Inf(-1), 0},
		{"exact/floored", eval.NewSTSScorer("STS", meas), 0.01, 2},
		{"profiled", eval.NewSTSScorerProfiled("STS-P", meas, core.ProfileOptions{}), math.Inf(-1), 2},
		{"profiled/floored", eval.NewSTSScorerProfiled("STS-P", meas, core.ProfileOptions{}), 0.01, 2},
	} {
		e, err := engine.New(tc.scorer, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.ScoreBatchMin(context.Background(), rows, cols, mask, tc.floor)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(m[0][0], -1) {
			t.Errorf("%s: admissible pair scored -Inf", tc.label)
		}
		for _, ij := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
			if !math.IsInf(m[ij[0]][ij[1]], -1) {
				t.Errorf("%s: masked pair [%d][%d]=%v, want -Inf", tc.label, ij[0], ij[1], m[ij[0]][ij[1]])
			}
		}
		// Only r0 and c0 appear in admissible pairs, so only they are prepared.
		if stats := e.CacheStats(); stats.Misses != 2 {
			t.Errorf("%s: prepared %d trajectories for a mask needing 2 (stats %+v)", tc.label, stats.Misses, stats)
		}
		if stats := e.ProfileCacheStats(); stats.Misses != tc.profiles {
			t.Errorf("%s: profiled %d trajectories, want %d (stats %+v)", tc.label, stats.Misses, tc.profiles, stats)
		}
	}
}

// TestConcurrentQueriesAndMutation exercises the documented concurrency
// contract under the race detector: TopK/ScoreBatch snapshots must stay
// consistent while Add/Remove/Replace churn the corpus.
func TestConcurrentQueriesAndMutation(t *testing.T) {
	e, err := engine.New(testScorer(t), engine.Options{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	stable := make(model.Dataset, 6)
	for i := range stable {
		stable[i] = walk(fmt.Sprintf("stable-%d", i), float64(100+60*i), 100, 5, 10, 8)
		if _, err := e.Add(stable[i]); err != nil {
			t.Fatal(err)
		}
	}
	query := walk("q", 130, 105, 5, 10, 8)

	const (
		queriers = 4
		rounds   = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, queriers+1)

	wg.Add(1)
	go func() { // mutator: churn transient trajectories through the corpus
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			id := fmt.Sprintf("churn-%d", r%3)
			tr := walk(id, float64(150+10*(r%7)), 110, 5, 10, 8)
			if _, err := e.Replace(tr); err != nil {
				errCh <- err
				return
			}
			if r%2 == 1 {
				if err := e.Remove(id); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if w%2 == 0 {
					matches, err := e.TopK(context.Background(), query, 3)
					if err != nil {
						errCh <- err
						return
					}
					for _, m := range matches {
						if math.IsNaN(m.Score) {
							errCh <- fmt.Errorf("NaN score for %s", m.ID)
							return
						}
					}
				} else {
					if _, err := e.ScoreBatch(context.Background(), model.Dataset{query}, stable, nil); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if stats := e.CacheStats(); stats.Hits == 0 {
		t.Errorf("no cache hits across %d concurrent queries (stats %+v)", queriers*rounds, stats)
	}
}
