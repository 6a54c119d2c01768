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
)

// TestConcurrentPrunedTopKAndIngest drives the filter-and-refine top-k
// path — thresholded queries, bound profiles through the profile LRU, and
// the shared prune counters — concurrently with corpus churn and stats
// reads. Run under -race it pins the thread-safety of the pruned path; the
// queries additionally cross-check every result against an exhaustive
// snapshot query issued by the same goroutine.
func TestConcurrentPrunedTopKAndIngest(t *testing.T) {
	e, err := engine.New(testScorer(t), engine.Options{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	stable := make(model.Dataset, 8)
	for i := range stable {
		stable[i] = walk(fmt.Sprintf("stable-%d", i), float64(100+50*i), 100, 5, 10, 8)
		if _, err := e.Add(stable[i]); err != nil {
			t.Fatal(err)
		}
	}
	query := walk("q", 120, 105, 5, 10, 8)

	const (
		queriers = 4
		rounds   = 30
	)
	var wg sync.WaitGroup
	errCh := make(chan error, queriers+2)

	wg.Add(1)
	go func() { // mutator: churn transient trajectories through the corpus
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			id := fmt.Sprintf("churn-%d", r%3)
			tr := walk(id, float64(140+10*(r%7)), 110, 5, 10, 8)
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
	wg.Add(1)
	go func() { // observer: hammer the shared counters
		defer wg.Done()
		for r := 0; r < rounds*queriers; r++ {
			ps := e.PruneStats()
			if ps.BoundPruned+ps.EarlyExited+ps.Refined > ps.Considered {
				errCh <- fmt.Errorf("inconsistent prune stats: %+v", ps)
				return
			}
		}
	}()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := engine.TopKOptions{K: 3}
			if w%2 == 1 {
				opts.MinScore = 0.01
			}
			for r := 0; r < rounds; r++ {
				got, err := e.TopKOpts(context.Background(), query, opts)
				if err != nil {
					errCh <- err
					return
				}
				for _, m := range got {
					if math.IsNaN(m.Score) {
						errCh <- fmt.Errorf("NaN score for %s", m.ID)
						return
					}
					if m.Score < opts.MinScore {
						errCh <- fmt.Errorf("match %s scores %g below floor %g", m.ID, m.Score, opts.MinScore)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if ps := e.PruneStats(); ps.Considered == 0 {
		t.Error("pruned path never engaged under concurrency")
	}
}

// TestPrunedTopKStableCorpusEquivalence is the determinism cross-check the
// stress test cannot do under churn: against a fixed corpus, concurrent
// pruned queries must all return the exhaustive answer — through the exact
// engine and through a profiled engine.
func TestPrunedTopKStableCorpusEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts engine.Options
	}{
		{"exact", engine.Options{}},
		{"profiled", engine.Options{Profile: &core.ProfileOptions{}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { prunedEquivalence(t, c.opts) })
	}
}

func prunedEquivalence(t *testing.T, opts engine.Options) {
	e, err := engine.New(testScorer(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Add(walk(fmt.Sprintf("c-%d", i), float64(100+40*i), 100, 5, 10, 8)); err != nil {
			t.Fatal(err)
		}
	}
	query := walk("q", 115, 103, 5, 10, 8)
	want, err := e.TopKOpts(context.Background(), query, engine.TopKOptions{K: 4, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				got, err := e.TopK(context.Background(), query, 4)
				if err != nil {
					errCh <- err
					return
				}
				if len(got) != len(want) {
					errCh <- fmt.Errorf("%d matches, want %d", len(got), len(want))
					return
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
						errCh <- fmt.Errorf("rank %d: %s=%g, want %s=%g",
							i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
