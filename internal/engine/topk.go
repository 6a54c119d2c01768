// Filter-and-refine top-k: candidates are bounded first with the
// admissible profile upper bounds of core (UpperBound / UpperBoundProfiled),
// then refined exactly in descending-bound order against the running k-th
// best score, so most of the corpus is rejected without paying full
// scoring. The pruned path is an exact optimization — it returns the same
// matches, with bit-identical scores, as the exhaustive path.
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
)

// TopKOptions parameterizes Engine.TopKOpts.
type TopKOptions struct {
	// K is the number of matches to return; K <= 0 returns nil, and a K
	// at or above the corpus size returns the whole ranked corpus.
	K int
	// MinScore restricts the result to matches with Score >= MinScore: the
	// result is the K best of the qualifying candidates. It is also the
	// floor of the pruning threshold, so a positive MinScore prunes from
	// the first wave on. The zero value keeps scores >= 0 — every real STS
	// match; pass math.Inf(-1) to also keep the sanitized −Inf non-scores,
	// which is what the plain TopK does.
	MinScore float64
	// Exhaustive forces full scoring of every candidate even when the
	// engine could filter-and-refine (equivalence tests, baselines).
	Exhaustive bool
}

// PruneStats are an engine's cumulative filter-and-refine counters, over
// all pruned queries (TopK and thresholded matrices) since construction.
type PruneStats struct {
	// Considered counts candidates that entered a pruned query.
	Considered uint64
	// BoundPruned counts candidates decided by the upper bound alone —
	// below the running threshold, or certified an exact zero.
	BoundPruned uint64
	// EarlyExited counts refinements abandoned mid-pair once the partial
	// sum plus the remaining bound could not reach the threshold.
	EarlyExited uint64
	// Refined counts refinements that ran to completion.
	Refined uint64
}

// paddedCounter is an atomic counter padded out to its own cache line:
// the four prune counters would otherwise share one line and every worker's
// increment would invalidate it for every other worker (false sharing — the
// counters are logically independent but physically coupled).
type paddedCounter struct {
	atomic.Uint64
	_ [56]byte
}

// pruneCounters is the engine-internal atomic form of PruneStats.
type pruneCounters struct {
	considered  paddedCounter
	boundPruned paddedCounter
	earlyExited paddedCounter
	refined     paddedCounter
}

func (c *pruneCounters) add(considered, boundPruned, earlyExited, refined uint64) {
	if considered != 0 {
		c.considered.Add(considered)
	}
	if boundPruned != 0 {
		c.boundPruned.Add(boundPruned)
	}
	if earlyExited != 0 {
		c.earlyExited.Add(earlyExited)
	}
	if refined != 0 {
		c.refined.Add(refined)
	}
}

// PruneStats returns the engine's cumulative filter-and-refine counters.
func (e *Engine) PruneStats() PruneStats {
	return PruneStats{
		Considered:  e.pstats.considered.Load(),
		BoundPruned: e.pstats.boundPruned.Load(),
		EarlyExited: e.pstats.earlyExited.Load(),
		Refined:     e.pstats.refined.Load(),
	}
}

// TopK scores the query against the whole corpus and returns the k best
// matches by descending score (ties break by slot, so results are
// deterministic). Scoring runs on the engine's worker pool and honors ctx
// cancellation and deadlines; corpus mutations during the query do not
// affect the snapshot being scored. Measure-backed engines answer through
// the filter-and-refine path (identical results, far fewer exact scorings)
// unless pruning is disabled.
func (e *Engine) TopK(ctx context.Context, query model.Trajectory, k int) ([]Match, error) {
	return e.TopKOpts(ctx, query, TopKOptions{K: k, MinScore: math.Inf(-1)})
}

// TopKOpts is TopK with explicit options (score floor, forced-exhaustive).
func (e *Engine) TopKOpts(ctx context.Context, query model.Trajectory, opts TopKOptions) ([]Match, error) {
	if opts.K <= 0 {
		return nil, nil
	}
	if err := query.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoQuery, err)
	}
	return e.topK(ctx, e.newQuery(query), opts)
}

// topKQuery is one validated top-k query. Its derived state resolves on
// its owner, the engine that holds its ID, at most once per query however
// many shards score it, and each path resolves only what it reads. A
// query that is a resident record's Get result thus shares the entries of
// that record, which the owner's own candidate scan reads.
type topKQuery struct {
	tr    model.Trajectory
	owner *Engine
	key   prepKey // owner.keyFor(tr)
	mu    sync.Mutex
	prep  *core.Prepared
	prof  *core.Profile
}

// newQuery makes tr a top-k query owned by e.
func (e *Engine) newQuery(tr model.Trajectory) *topKQuery {
	return &topKQuery{tr: tr, owner: e, key: e.keyFor(tr)}
}

func (q *topKQuery) prepared() (*core.Prepared, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var err error
	if q.prep == nil {
		q.prep, err = q.owner.prepared(q.key, inHand(q.tr))
	}
	return q.prep, err
}

func (q *topKQuery) profiled() (*core.Profile, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var err error
	if q.prof == nil {
		q.prof, _, err = q.owner.profiled(q.key, inHand(q.tr))
	}
	return q.prof, err
}

// topK answers q over e's corpus: a single engine's TopKOpts, or one
// shard's part of a Sharded query.
func (e *Engine) topK(ctx context.Context, q *topKQuery, opts TopKOptions) ([]Match, error) {
	k := opts.K
	minScore := opts.MinScore
	if math.IsNaN(minScore) {
		minScore = math.Inf(-1)
	}
	cands := e.snapshotCandidates()
	if len(cands) == 0 {
		return nil, nil
	}
	// A k past the corpus returns the whole ranked corpus; clamping it
	// here sizes every buffer below by the corpus, not by the caller's k.
	k = min(k, len(cands))
	// With every candidate in the result anyway, bounds cannot save work.
	trivial := k == len(cands) && math.IsInf(minScore, -1)
	if opts.Exhaustive || trivial || !e.canPrune() {
		return e.topKExhaustive(ctx, q, cands, k, minScore)
	}
	return e.topKPruned(ctx, q, cands, k, minScore)
}

// topKExhaustive scores every candidate, keeping the legacy fully-scored
// path bit-for-bit (it is the equivalence oracle for the pruned path).
func (e *Engine) topKExhaustive(ctx context.Context, q *topKQuery, cands []candidate, k int, minScore float64) ([]Match, error) {
	scores := make([]float64, len(cands))
	var scoreOne func(i int) error
	if e.profOpts != nil {
		fq, err := q.profiled()
		if err != nil {
			return nil, err
		}
		scoreOne = func(i int) error {
			ref := cands[i].ref
			fc, _, err := e.profiled(refKey(ref), ref.Decode)
			if err != nil {
				return err
			}
			v, err := core.SimilarityProfiled(fq, fc)
			if err != nil {
				return err
			}
			scores[i] = sanitize(v)
			return nil
		}
	} else if e.measure != nil {
		pq, err := q.prepared()
		if err != nil {
			return nil, err
		}
		scoreOne = func(i int) error {
			ref := cands[i].ref
			pc, err := e.prepared(refKey(ref), ref.Decode)
			if err != nil {
				return err
			}
			v, err := e.measure.SimilarityPrepared(pq, pc)
			if err != nil {
				return err
			}
			scores[i] = sanitize(v)
			return nil
		}
	} else {
		scoreOne = func(i int) error {
			tr, err := cands[i].ref.Decode()
			if err != nil {
				return fmt.Errorf("engine: %w", err)
			}
			v, err := e.scorer.Score(q.tr, tr)
			if err != nil {
				return err
			}
			scores[i] = sanitize(v)
			return nil
		}
	}
	if err := ForEach(ctx, len(cands), e.workers, scoreOne); err != nil {
		return nil, err
	}
	matches := make([]Match, 0, len(cands))
	for i, c := range cands {
		if scores[i] >= minScore {
			matches = append(matches, Match{ID: c.ref.ID, Slot: c.slot, Score: scores[i]})
		}
	}
	sort.Slice(matches, func(a, b int) bool {
		if matches[a].Score != matches[b].Score {
			return matches[a].Score > matches[b].Score
		}
		return matches[a].Slot < matches[b].Slot
	})
	if len(matches) > k {
		matches = matches[:k]
	}
	return matches, nil
}

// Refinement outcomes of one candidate within a wave.
const (
	resPruned    int8 = iota // bound below the wave threshold, never refined
	resExited                // refinement abandoned; score < threshold
	resScored                // refined to completion; score is exact
	resCertified             // zero bound certifies an exact zero score
)

// topKPruned is the filter-and-refine top-k. Phase 1 bounds every
// candidate in parallel; phase 2 refines candidates in descending-bound
// order, in worker-sized waves, against the threshold frozen at each
// wave's start (the k-th best score so far, floored by minScore). Because
// the bounds are admissible and every surviving refinement is exact and
// bit-identical to the exhaustive scorer, the result equals
// topKExhaustive's on the same snapshot; because candidates are
// bound-ordered, the first bound below the threshold prunes the whole
// remaining tail. Wave thresholds are frozen before the wave runs, so
// results are independent of scheduling (workers only change how much
// pruning is achieved, never the answer).
func (e *Engine) topKPruned(ctx context.Context, q *topKQuery, cands []candidate, k int, minScore float64) ([]Match, error) {
	profiled := e.profOpts != nil
	fq, err := q.profiled()
	if err != nil {
		return nil, err
	}
	var pq *core.Prepared
	if !profiled {
		// Already prepared as a side effect of profiling; cache hit.
		if pq, err = q.prepared(); err != nil {
			return nil, err
		}
	}

	// Phase 1: admissible upper bounds for every candidate. Phase 2 reads
	// a candidate's profile only to refine it, with the prepared state its
	// profile build made when the profile missed the cache (a small
	// prepared cache may have evicted it by then). A zero bound is
	// certified without refining, so a zero-bound candidate keeps
	// neither, rather than holding both alive until the query ends.
	ubs := make([]float64, len(cands))
	profs := make([]*core.Profile, len(cands))
	var preps []*core.Prepared
	if !profiled {
		preps = make([]*core.Prepared, len(cands))
	}
	if err := ForEach(ctx, len(cands), e.workers, func(i int) error {
		ref := cands[i].ref
		fc, built, err := e.profiled(refKey(ref), ref.Decode)
		if err != nil {
			return err
		}
		var ub float64
		if profiled {
			ub, err = core.UpperBoundProfiled(fq, fc)
		} else {
			ub, err = core.UpperBound(fq, fc)
		}
		if err != nil {
			return err
		}
		ubs[i] = ub
		if ub != 0 {
			profs[i] = fc
			if preps != nil {
				preps[i] = built
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ubs[idx[a]] != ubs[idx[b]] {
			return ubs[idx[a]] > ubs[idx[b]]
		}
		return cands[idx[a]].slot < cands[idx[b]].slot
	})

	// Phase 2: wave refinement against the running k-th best.
	var bp, ee, rf uint64
	defer func() { e.pstats.add(uint64(len(cands)), bp, ee, rf) }()
	h := newTopKHeap(k)
	states := make([]int8, len(cands))
	scores := make([]float64, len(cands))
	pos := 0
	// The first wave must fill the heap before the threshold means
	// anything, so it spans at least k candidates.
	wave := e.workers
	if wave < k {
		wave = k
	}
	for pos < len(idx) {
		theta := minScore
		if h.full() {
			theta = h.min().Score
		}
		// Bound-ordered candidates: once the best remaining bound is below
		// the threshold, so is every later one.
		if ubs[idx[pos]] < theta {
			bp += uint64(len(idx) - pos)
			break
		}
		end := pos + wave
		if end > len(idx) {
			end = len(idx)
		}
		batch := idx[pos:end]
		if err := ForEach(ctx, len(batch), e.workers, func(bi int) error {
			ci := batch[bi]
			switch {
			case ubs[ci] < theta:
				states[ci] = resPruned
			case ubs[ci] == 0:
				// An admissible zero bound certifies the exact score is a
				// floating-point-exact zero — no refinement needed.
				states[ci], scores[ci] = resCertified, 0
			default:
				var v float64
				var ok bool
				var err error
				if profiled {
					v, ok, err = core.SimilarityProfiledThreshold(fq, profs[ci], theta)
				} else {
					pc := preps[ci]
					if pc == nil {
						ref := cands[ci].ref
						if pc, err = e.prepared(refKey(ref), ref.Decode); err != nil {
							return err
						}
					}
					v, ok, err = e.measure.RefineThreshold(pq, pc, fq, profs[ci], theta)
				}
				if err != nil {
					return err
				}
				if !ok {
					states[ci] = resExited
				} else {
					states[ci], scores[ci] = resScored, sanitize(v)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		// Merge sequentially in bound order so the heap evolves
		// deterministically.
		for _, ci := range batch {
			switch states[ci] {
			case resPruned:
				bp++
				continue
			case resExited:
				ee++
				continue
			case resScored:
				rf++
			case resCertified:
				bp++
			}
			if scores[ci] >= minScore {
				h.offer(Match{ID: cands[ci].ref.ID, Slot: cands[ci].slot, Score: scores[ci]})
			}
		}
		pos = end
		wave = e.workers
	}
	return h.sorted(), nil
}

// topKHeap is a bounded min-heap of the k best matches seen so far under a
// total order supplied as a strict "ranks worse than" comparator: the root
// is the current k-th best, i.e. the pruning threshold. The pruned top-k
// uses the exhaustive path's exact ordering (score desc, slot asc); the
// sharded coordinator merges shard results with an ID tie-break instead.
type topKHeap struct {
	k     int
	worse func(a, b Match) bool
	m     []Match
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k, worse: worseMatch, m: make([]Match, 0, k)}
}

// newMatchHeap is newTopKHeap with an explicit comparator. It reserves
// nothing up front: its k is the caller's, which may be far larger than
// anything offered, so it grows with the matches offered.
func newMatchHeap(k int, worse func(a, b Match) bool) *topKHeap {
	return &topKHeap{k: k, worse: worse}
}

func (h *topKHeap) full() bool { return len(h.m) == h.k }

// min returns the worst retained match; callers must ensure the heap is
// non-empty.
func (h *topKHeap) min() Match { return h.m[0] }

// worseMatch reports whether a ranks strictly below b: lower score, or an
// equal score with a higher slot. It is the negation of the result sort
// order, so heap membership matches the exhaustive truncation exactly.
func worseMatch(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Slot > b.Slot
}

// offer inserts m if the heap has room or m outranks the current worst.
func (h *topKHeap) offer(m Match) {
	if len(h.m) < h.k {
		h.m = append(h.m, m)
		h.up(len(h.m) - 1)
		return
	}
	if !h.worse(h.m[0], m) {
		return
	}
	h.m[0] = m
	h.down(0)
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(h.m[i], h.m[p]) {
			return
		}
		h.m[i], h.m[p] = h.m[p], h.m[i]
		i = p
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.m)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.worse(h.m[r], h.m[c]) {
			c = r
		}
		if !h.worse(h.m[c], h.m[i]) {
			return
		}
		h.m[i], h.m[c] = h.m[c], h.m[i]
		i = c
	}
}

// sorted drains the heap into a best-first slice (the reverse of the
// heap's comparator order). The heap is consumed.
func (h *topKHeap) sorted() []Match {
	out := make([]Match, len(h.m))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.m[0]
		last := len(h.m) - 1
		h.m[0] = h.m[last]
		h.m = h.m[:last]
		h.down(0)
	}
	return out
}
