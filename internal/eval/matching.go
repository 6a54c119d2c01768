package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
)

// MatchResult reports one trajectory-matching run (Section VI-B): for
// every trajectory of D(1), the rank of its true twin among all of D(2)
// by descending similarity.
type MatchResult struct {
	// Ranks[i] is the rank of D2[i] when D2 is sorted by similarity to
	// D1[i], 1-based. Ties are resolved to the expected rank under random
	// tie-breaking: 1 + (#strictly better) + (#ties)/2.
	Ranks []float64
	// Precision is Eq. 11: the fraction of rows whose true twin ranks
	// first.
	Precision float64
	// MeanRank is Eq. 12: the average of Ranks.
	MeanRank float64
	// Elapsed is the wall-clock time spent scoring the full matrix,
	// which the grid-size experiments (Figure 12) report.
	Elapsed time.Duration
}

// ErrSizeMismatch is returned when the paired datasets differ in length.
var ErrSizeMismatch = errors.New("eval: paired datasets must be the same length")

// Matching runs the trajectory-matching experiment: d1[i] and d2[i] are
// trajectories of the same object (e.g. the two halves of an alternating
// split); every trajectory of d1 is scored against every trajectory of
// d2, and the rank of the true twin is recorded.
func Matching(d1, d2 model.Dataset, s Scorer, workers int) (MatchResult, error) {
	return MatchingContext(context.Background(), d1, d2, s, workers)
}

// MatchingContext is Matching with cancellation: the full-matrix scoring
// runs on the engine executor and aborts promptly when ctx is cancelled or
// its deadline passes.
func MatchingContext(ctx context.Context, d1, d2 model.Dataset, s Scorer, workers int) (MatchResult, error) {
	if len(d1) != len(d2) {
		return MatchResult{}, ErrSizeMismatch
	}
	if len(d1) == 0 {
		return MatchResult{}, errors.New("eval: empty datasets")
	}
	start := time.Now()
	scores, err := engine.ScoreMatrix(ctx, s, d1, d2, nil, math.Inf(-1), workers)
	if err != nil {
		return MatchResult{}, err
	}
	res := MatchResult{Ranks: make([]float64, len(d1)), Elapsed: time.Since(start)}
	hits := 0
	var total float64
	for i, row := range scores {
		r := RankOf(row, i)
		res.Ranks[i] = r
		if r <= 1 {
			hits++
		}
		total += r
	}
	res.Precision = float64(hits) / float64(len(d1))
	res.MeanRank = total / float64(len(d1))
	return res, nil
}

// RankOf returns the rank of entry `truth` within scores by descending
// value, resolving ties to the expected rank under a random permutation:
// 1 + (#strictly greater) + (#equal, excluding truth)/2.
func RankOf(scores []float64, truth int) float64 {
	target := scores[truth]
	greater, ties := 0, 0
	for j, v := range scores {
		if j == truth {
			continue
		}
		switch {
		case v > target:
			greater++
		case v == target:
			ties++
		}
	}
	return 1 + float64(greater) + float64(ties)/2
}

// PrecisionAtK returns the fraction of rows whose true twin ranks within
// the top k — the precision@k generalization of Eq. 11 (which is k = 1).
func (r MatchResult) PrecisionAtK(k int) float64 {
	if len(r.Ranks) == 0 || k < 1 {
		return 0
	}
	hits := 0
	for _, rank := range r.Ranks {
		if rank <= float64(k) {
			hits++
		}
	}
	return float64(hits) / float64(len(r.Ranks))
}

// BootstrapCI returns a bootstrap confidence interval for the mean of the
// per-row ranks (or any per-row statistic): iters resampled means, with
// the (1−conf)/2 and 1−(1−conf)/2 quantiles reported. Small matching
// corpora make point estimates noisy; the interval says how noisy.
func BootstrapCI(values []float64, iters int, conf float64, rng *rand.Rand) (lo, hi float64, err error) {
	if len(values) == 0 {
		return 0, 0, errors.New("eval: no values to bootstrap")
	}
	if iters < 1 || conf <= 0 || conf >= 1 {
		return 0, 0, errors.New("eval: need iters >= 1 and 0 < conf < 1")
	}
	means := make([]float64, iters)
	for b := 0; b < iters; b++ {
		var sum float64
		for range values {
			sum += values[rng.Intn(len(values))]
		}
		means[b] = sum / float64(len(values))
	}
	sort.Float64s(means)
	alpha := (1 - conf) / 2
	loIdx := int(alpha * float64(iters))
	hiIdx := int((1 - alpha) * float64(iters))
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	return means[loIdx], means[hiIdx], nil
}
