// Package eval implements the evaluation protocol of Section VI: the
// trajectory-matching task with its precision (Eq. 11) and mean rank
// (Eq. 12) metrics, the cross-similarity deviation (Eq. 13), and the
// scorers the experiments are built on. Matrix scoring runs through
// engine.ScoreMatrix, on the engine package's cancellable executor.
package eval

import (
	"math"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
)

// Scorer assigns a similarity score to a pair of trajectories. Higher
// scores mean more similar. Implementations must be safe for concurrent
// use; the harness fans out over goroutines. Any Scorer also satisfies
// engine.Scorer (the interfaces are structurally identical).
type Scorer interface {
	// Name identifies the measure in experiment output ("STS", "CATS" …).
	Name() string
	// Score returns the similarity of a and b.
	Score(a, b model.Trajectory) (float64, error)
}

// FuncScorer adapts a similarity function to the Scorer interface.
type FuncScorer struct {
	N string
	F func(a, b model.Trajectory) (float64, error)
}

// Name implements Scorer.
func (s FuncScorer) Name() string { return s.N }

// Score implements Scorer.
func (s FuncScorer) Score(a, b model.Trajectory) (float64, error) { return s.F(a, b) }

// FromDistance adapts a distance function (smaller = more similar) to a
// Scorer by negation. Infinite and NaN distances both map to −Inf scores,
// which rank last: an undefined distance is a non-match, and letting a
// degenerate baseline's NaN propagate would poison greedy linking's
// max-score selection (NaN compares false with everything, so it would
// survive every threshold).
func FromDistance(name string, f func(a, b model.Trajectory) float64) Scorer {
	return FuncScorer{N: name, F: func(a, b model.Trajectory) (float64, error) {
		d := f(a, b)
		if math.IsNaN(d) || math.IsInf(d, 1) {
			return math.Inf(-1), nil
		}
		return -d, nil
	}}
}

// STSScorer wraps a core.Measure. It implements engine.MeasureScorer and
// engine.ProfileScorer, so engines and engine.ScoreMatrix route its matrix
// scoring through per-trajectory preparation (personalized speed model,
// observed-timestamp distributions) that happens once per distinct
// trajectory rather than once per pair.
type STSScorer struct {
	name    string
	m       *core.Measure
	profile *core.ProfileOptions
}

// NewSTSScorer names and wraps a measure; scoring is exact (Eq. 10).
func NewSTSScorer(name string, m *core.Measure) *STSScorer {
	return &STSScorer{name: name, m: m}
}

// NewSTSScorerProfiled names and wraps a measure with the bucketed S-T
// profile approximation: every scoring path (one-off pairs, matrices,
// engine top-k) builds each trajectory's sparse profile once and scores
// pairs as sparse dot-product merges — an O(N)→O(1) amortization of the
// per-trajectory STP work across an N-pair workload, at an accuracy set by
// opts.BucketSeconds.
func NewSTSScorerProfiled(name string, m *core.Measure, opts core.ProfileOptions) *STSScorer {
	return &STSScorer{name: name, m: m, profile: &opts}
}

// Name implements Scorer.
func (s *STSScorer) Name() string { return s.name }

// Measure exposes the wrapped measure (it also makes STSScorer an
// engine.MeasureScorer, enabling the engine's prepared-cache fast path).
func (s *STSScorer) Measure() *core.Measure { return s.m }

// ProfileOptions implements engine.ProfileScorer: non-nil when the scorer
// was built with NewSTSScorerProfiled, switching engines and
// engine.ScoreMatrix to profiled scoring.
func (s *STSScorer) ProfileOptions() *core.ProfileOptions { return s.profile }

// Score implements Scorer for one-off pairs, honoring the profiled mode so
// rankings agree with the matrix and engine paths.
func (s *STSScorer) Score(a, b model.Trajectory) (float64, error) {
	if s.profile == nil {
		return s.m.Similarity(a, b)
	}
	pa, err := s.m.Prepare(a)
	if err != nil {
		return 0, err
	}
	pb, err := s.m.Prepare(b)
	if err != nil {
		return 0, err
	}
	fa, err := s.m.Profile(pa, *s.profile)
	if err != nil {
		return 0, err
	}
	fb, err := s.m.Profile(pb, *s.profile)
	if err != nil {
		return 0, err
	}
	return core.SimilarityProfiled(fa, fb)
}

// sanitize maps NaN scores (which would poison rankings) to −Inf.
func sanitize(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}
