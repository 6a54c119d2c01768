package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
)

// Pair is one (Tra1, Tra2) pair in the cross-similarity-deviation
// protocol of Section VI-D.
type Pair struct {
	A, B model.Trajectory
}

// RandomPairs draws n distinct-index pairs from ds uniformly at random.
// An error is returned if ds has fewer than two trajectories.
func RandomPairs(ds model.Dataset, n int, rng *rand.Rand) ([]Pair, error) {
	if len(ds) < 2 {
		return nil, errors.New("eval: need at least two trajectories to form pairs")
	}
	out := make([]Pair, 0, n)
	for len(out) < n {
		i := rng.Intn(len(ds))
		j := rng.Intn(len(ds))
		if i == j {
			continue
		}
		out = append(out, Pair{A: ds[i], B: ds[j]})
	}
	return out, nil
}

// CrossSimilarityDeviation evaluates Eq. 13 averaged over pairs: for each
// pair, Tra2 is down-sampled at rate alpha and the relative change of the
// measured similarity is recorded,
//
//	| d(Tra1, Tra2′) − d(Tra1, Tra2) | / | d(Tra1, Tra2) |.
//
// A smaller deviation means the measure is more stable under re-sampling,
// i.e. closer to a property of the underlying paths rather than of the
// sampling process. Pairs whose baseline similarity is numerically zero
// carry no signal and are skipped; the number of contributing pairs is
// returned alongside the average.
func CrossSimilarityDeviation(pairs []Pair, s Scorer, alpha float64, rng *rand.Rand, workers int) (avg float64, used int, err error) {
	type result struct {
		dev float64
		ok  bool
	}
	// Down-sampling must happen up front: rng is not safe for concurrent
	// use inside the parallel loop.
	subs := make([]model.Trajectory, len(pairs))
	for i, p := range pairs {
		subs[i] = model.Downsample(p.B, alpha, rng)
	}
	results := make([]result, len(pairs))
	err = parallelFor(len(pairs), workers, func(i int) error {
		base, err := s.Score(pairs[i].A, pairs[i].B)
		if err != nil {
			return err
		}
		sub, err := s.Score(pairs[i].A, subs[i])
		if err != nil {
			return err
		}
		base, sub = sanitize(base), sanitize(sub)
		if math.IsInf(base, 0) || math.IsInf(sub, 0) || math.Abs(base) < 1e-12 {
			return nil
		}
		results[i] = result{dev: math.Abs(sub-base) / math.Abs(base), ok: true}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var total float64
	for _, r := range results {
		if r.ok {
			total += r.dev
			used++
		}
	}
	if used == 0 {
		return 0, 0, errors.New("eval: no pair produced a usable baseline similarity")
	}
	return total / float64(used), used, nil
}

// CrossSimilaritySweep evaluates the cross-similarity deviation at every
// sampling rate in alphas, computing each pair's baseline similarity
// d(Tra1, Tra2) exactly once and reusing it across rates. The result has
// one average per alpha, in order.
func CrossSimilaritySweep(pairs []Pair, s Scorer, alphas []float64, rng *rand.Rand, workers int) ([]float64, error) {
	// Pre-draw every down-sampled variant so the rng stays single-threaded.
	subs := make([][]model.Trajectory, len(alphas))
	for ai, alpha := range alphas {
		subs[ai] = make([]model.Trajectory, len(pairs))
		for i, p := range pairs {
			subs[ai][i] = model.Downsample(p.B, alpha, rng)
		}
	}
	bases := make([]float64, len(pairs))
	if err := parallelFor(len(pairs), workers, func(i int) error {
		v, err := s.Score(pairs[i].A, pairs[i].B)
		if err != nil {
			return err
		}
		bases[i] = sanitize(v)
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]float64, len(alphas))
	for ai := range alphas {
		devs := make([]float64, len(pairs))
		ok := make([]bool, len(pairs))
		if err := parallelFor(len(pairs), workers, func(i int) error {
			base := bases[i]
			if math.IsInf(base, 0) || math.Abs(base) < 1e-12 {
				return nil
			}
			v, err := s.Score(pairs[i].A, subs[ai][i])
			if err != nil {
				return err
			}
			v = sanitize(v)
			if math.IsInf(v, 0) {
				return nil
			}
			devs[i] = math.Abs(v-base) / math.Abs(base)
			ok[i] = true
			return nil
		}); err != nil {
			return nil, err
		}
		var total float64
		used := 0
		for i := range devs {
			if ok[i] {
				total += devs[i]
				used++
			}
		}
		if used == 0 {
			return nil, errors.New("eval: no pair produced a usable baseline similarity")
		}
		out[ai] = total / float64(used)
	}
	return out, nil
}

// parallelFor runs f(0..n-1) across workers goroutines (0 selects
// GOMAXPROCS) on the engine executor and returns the first error.
func parallelFor(n, workers int, f func(i int) error) error {
	return engine.ForEach(context.Background(), n, workers, f)
}
