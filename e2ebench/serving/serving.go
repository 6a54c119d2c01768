// Package serving holds the pieces of cmd/stsserved's start-up that the
// benchmark must reproduce exactly: the scorer construction (so the
// in-process reference scores like the served engine) and the engine
// construction (so the traced server is the same engine under spans).
package serving

import (
	"fmt"
	"runtime"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/store"
)

// BuildScorer mirrors buildScorer in cmd/stsserved: scales derived from the
// boot corpus bounds when not given, the grid padded beyond the blur halo.
// It returns the resolved sigma with the scorer.
func BuildScorer(bounds geo.Rect, haveBounds bool, gridSize, sigma, profileBucket float64) (eval.Scorer, float64, error) {
	if !haveBounds {
		if gridSize <= 0 && sigma <= 0 {
			return nil, 0, fmt.Errorf("with no preloaded corpus, -grid or -sigma is required")
		}
		if gridSize <= 0 {
			gridSize = sigma
		}
		if sigma <= 0 {
			sigma = gridSize
		}
		half := 1000 * gridSize
		bounds = geo.Rect{Min: geo.Point{X: -half, Y: -half}, Max: geo.Point{X: half, Y: half}}
	} else {
		extent := bounds.Width()
		if bounds.Height() > extent {
			extent = bounds.Height()
		}
		if gridSize <= 0 {
			if sigma > 0 {
				gridSize = sigma
			} else {
				gridSize = extent / 100
			}
		}
		if sigma <= 0 {
			sigma = gridSize
		}
		bounds = bounds.Expand(extent / 2)
	}
	grid, err := geo.NewGrid(bounds.Expand(4*sigma+gridSize), gridSize)
	if err != nil {
		return nil, 0, err
	}
	m, err := core.NewSTS(grid, sigma)
	if err != nil {
		return nil, 0, err
	}
	if profileBucket != 0 {
		popts := core.ProfileOptions{}
		if profileBucket > 0 {
			popts.BucketSeconds = profileBucket
		}
		return eval.NewSTSScorerProfiled("STS-P", m, popts), sigma, nil
	}
	return eval.NewSTSScorer("STS", m), sigma, nil
}

// Shards mirrors stsserved's -shards default: min(8, NumCPU).
func Shards() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	return n
}

// NewEngine mirrors stsserved's engine construction over one corpus per
// shard, with stsserved's default worker count: a single engine for one
// shard, otherwise the sharded coordinator with the cache capacity split
// across shards.
func NewEngine(scorer eval.Scorer, corpora []store.Corpus, cacheSize int) (engine.Service, error) {
	const workers = 0
	n := len(corpora)
	if n == 1 {
		return engine.New(scorer, engine.Options{Workers: workers, CacheSize: cacheSize, Corpus: corpora[0]})
	}
	perCache := cacheSize
	if perCache == 0 {
		perCache = engine.DefaultCacheSize
	}
	if perCache > 0 {
		perCache = (perCache + n - 1) / n
	}
	return engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:  n,
		Workers: workers,
		ShardOptions: func(i int) (engine.Options, error) {
			return engine.Options{
				Workers:   engine.SplitWorkers(workers, engine.DefaultFanOut),
				CacheSize: perCache,
				Corpus:    corpora[i],
			}, nil
		},
	})
}
