// Package linking implements trajectory linking — deciding which
// trajectories, collected by different sensing systems, belong to the
// same object. It is the flagship application of spatial-temporal
// similarity (Section II of the STS paper and its references [1], [22],
// [23]).
//
// Two families are provided:
//
//   - a similarity-based linker that turns any pairwise similarity
//     measure into an assignment between two trajectory sets, with
//     greedy one-to-one matching and a rejection threshold;
//   - the velocity-feasibility compatibility check of FTL (Wu et al.,
//     ICDE 2016) and ST-Link/SLIM: two trajectories can only belong to
//     the same object if the merged sequence never requires moving
//     faster than a speed bound. STS replaces the global bound with a
//     personalized speed distribution; the FTL-style check remains
//     useful as a cheap pre-filter.
package linking

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/model"
)

// Feasible reports whether trajectories a and b could have been produced
// by one object whose speed never exceeds maxSpeed (m/s) — the mutual
// compatibility test of FTL with a global velocity threshold. Samples
// closer in time than minGap seconds are exempted (location noise makes
// instantaneous speeds unbounded as Δt → 0).
//
// The check walks both (time-sorted) sample sequences with two cursors
// instead of materializing the merged trajectory, so it allocates nothing:
// it runs as a pre-filter over every candidate pair in GreedyLink, where a
// per-pair copy of both trajectories would dominate the filter's cost.
// Ordering matches MergeByTime (ties keep a's sample first).
func Feasible(a, b model.Trajectory, maxSpeed, minGap float64) bool {
	i, j := 0, 0
	var prev model.Sample
	have := false
	for i < a.Len() || j < b.Len() {
		var cur model.Sample
		if j >= b.Len() || (i < a.Len() && a.Samples[i].T <= b.Samples[j].T) {
			cur = a.Samples[i]
			i++
		} else {
			cur = b.Samples[j]
			j++
		}
		if have {
			dt := cur.T - prev.T
			if dt >= minGap {
				d := cur.Loc.Dist(prev.Loc)
				if d/dt > maxSpeed {
					return false
				}
			}
		}
		prev = cur
		have = true
	}
	return true
}

// MergeByTime interleaves the samples of a and b into one time-sorted
// sequence (the "merged trajectory" of FTL and of STS's Eq. 10). Samples
// with identical timestamps keep a's first.
func MergeByTime(a, b model.Trajectory) model.Trajectory {
	out := model.Trajectory{
		ID:      a.ID + "+" + b.ID,
		Samples: make([]model.Sample, 0, a.Len()+b.Len()),
	}
	i, j := 0, 0
	for i < a.Len() && j < b.Len() {
		if a.Samples[i].T <= b.Samples[j].T {
			out.Samples = append(out.Samples, a.Samples[i])
			i++
		} else {
			out.Samples = append(out.Samples, b.Samples[j])
			j++
		}
	}
	out.Samples = append(out.Samples, a.Samples[i:]...)
	out.Samples = append(out.Samples, b.Samples[j:]...)
	return out
}

// Link is one matched pair produced by the linker.
type Link struct {
	// I and J index the trajectory in the first and second set.
	I, J int
	// Score is the similarity that produced the link.
	Score float64
}

// Options configures the linker.
type Options struct {
	// MinScore rejects links whose similarity falls below it. With the
	// default 0, any positive similarity can link.
	MinScore float64
	// MaxSpeed, when positive, enables the FTL feasibility pre-filter:
	// pairs whose merged trajectory requires exceeding this speed are
	// never scored. MinGap is the Δt exemption of the filter (default
	// 1 s when MaxSpeed is set).
	MaxSpeed float64
	MinGap   float64
	// Workers bounds scoring parallelism (0 = GOMAXPROCS).
	Workers int
}

// ErrEmptyInput is returned when either trajectory set is empty.
var ErrEmptyInput = errors.New("linking: empty trajectory set")

// GreedyLink links two trajectory sets one-to-one: the optional FTL
// feasibility pre-filter first masks out incompatible pairs, the
// similarity of the surviving pairs is computed (masked pairs are never
// scored — with an STS scorer, trajectories feasible with nothing are not
// even prepared), and pairs are accepted best-first, skipping trajectories
// already linked — the standard greedy assignment used by linkage systems
// when a full optimal assignment is unnecessary. Returned links are sorted
// by descending score; equal scores break ties by (I, J), so the linking
// is deterministic.
func GreedyLink(d1, d2 model.Dataset, scorer eval.Scorer, opts Options) ([]Link, error) {
	return GreedyLinkContext(context.Background(), d1, d2, scorer, opts)
}

// GreedyLinkContext is GreedyLink with cancellation: it is GreedyLinkBatch
// over the one-shot engine.ScoreMatrix, so the feasibility pre-filter and
// the scoring matrix both run on the engine executor, and cancelling ctx
// aborts the linking promptly at either stage.
func GreedyLinkContext(ctx context.Context, d1, d2 model.Dataset, scorer eval.Scorer, opts Options) ([]Link, error) {
	return GreedyLinkBatch(ctx, oneShot{scorer: scorer, workers: opts.Workers}, d1, d2, opts)
}

// Batcher scores rows × cols under a mask and a score floor on some
// execution substrate. *engine.Engine and *engine.Sharded implement it;
// GreedyLinkBatch uses it so a long-lived server links through the
// engine's prepared/profile LRU caches instead of re-preparing every
// trajectory per request.
type Batcher interface {
	ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error)
}

// oneShot is the Batcher behind GreedyLinkContext: the per-call matrix of
// engine.ScoreMatrix, with no cache outliving the call.
type oneShot struct {
	scorer  eval.Scorer
	workers int
}

func (o oneShot) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	return engine.ScoreMatrix(ctx, o.scorer, rows, cols, mask, minScore, o.workers)
}

// GreedyLinkBatch is GreedyLinkContext with the scoring delegated to a
// Batcher: same FTL feasibility pre-filter, same masked scoring semantics,
// same deterministic greedy selection — but per-trajectory preparation is
// cached across calls when the Batcher is an engine. The serving layer's
// /v1/link endpoint runs through this entry point.
func GreedyLinkBatch(ctx context.Context, b Batcher, d1, d2 model.Dataset, opts Options) ([]Link, error) {
	if len(d1) == 0 || len(d2) == 0 {
		return nil, ErrEmptyInput
	}
	mask, err := feasibilityMask(ctx, d1, d2, opts)
	if err != nil {
		return nil, fmt.Errorf("linking: %w", err)
	}
	scores, err := b.ScoreBatchMin(ctx, d1, d2, mask, scoreFloor(opts))
	if err != nil {
		return nil, fmt.Errorf("linking: %w", err)
	}
	return greedySelect(scores, mask, opts.MinScore), nil
}

// scoreFloor is the floor a linker scores its matrix against: a positive
// rejection threshold doubles as a pruning floor (pairs provably below it
// collapse to −Inf without full scoring, and both linkers drop them exactly
// as they would drop their sub-threshold scores); otherwise none.
func scoreFloor(opts Options) float64 {
	if opts.MinScore > 0 {
		return opts.MinScore
	}
	return math.Inf(-1)
}

// greedySelect turns a scored (and optionally masked) matrix into a
// one-to-one assignment, accepting pairs best-first and skipping
// trajectories already linked. Equal scores break ties by (I, J), so the
// linking is deterministic.
func greedySelect(scores [][]float64, mask [][]bool, minScore float64) []Link {
	type cand struct {
		i, j int
		s    float64
	}
	var cands []cand
	for i := range scores {
		for j := range scores[i] {
			if mask != nil && !mask[i][j] {
				continue
			}
			if scores[i][j] < minScore {
				continue
			}
			cands = append(cands, cand{i, j, scores[i][j]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].s != cands[b].s {
			return cands[a].s > cands[b].s
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	usedI := make([]bool, len(scores))
	cols := 0
	if len(scores) > 0 {
		cols = len(scores[0])
	}
	usedJ := make([]bool, cols)
	var links []Link
	for _, c := range cands {
		if usedI[c.i] || usedJ[c.j] {
			continue
		}
		usedI[c.i] = true
		usedJ[c.j] = true
		links = append(links, Link{I: c.i, J: c.j, Score: c.s})
	}
	return links
}

// feasibilityMask builds the FTL pre-filter mask (nil when the filter is
// disabled), parallelizing the pairwise feasibility checks over rows on
// the engine executor.
func feasibilityMask(ctx context.Context, d1, d2 model.Dataset, opts Options) ([][]bool, error) {
	if opts.MaxSpeed <= 0 {
		return nil, nil
	}
	minGap := opts.MinGap
	if minGap <= 0 {
		minGap = 1
	}
	mask := make([][]bool, len(d1))
	err := engine.ForEach(ctx, len(d1), opts.Workers, func(i int) error {
		row := make([]bool, len(d2))
		for j := range d2 {
			row[j] = Feasible(d1[i], d2[j], opts.MaxSpeed, minGap)
		}
		mask[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mask, nil
}

// Accuracy evaluates a linking against the ground truth that d1[i] and
// d2[i] observe the same object: the fraction of true pairs recovered
// (recall) and the fraction of produced links that are correct
// (precision).
func Accuracy(links []Link, n int) (precision, recall float64) {
	if n == 0 {
		return 0, 0
	}
	correct := 0
	for _, l := range links {
		if l.I == l.J {
			correct++
		}
	}
	if len(links) > 0 {
		precision = float64(correct) / float64(len(links))
	}
	recall = float64(correct) / float64(n)
	return precision, recall
}
