package engine

import (
	"context"
	"math"
	"runtime"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
)

// ScoreBatch computes scores[i][j] = Score(rows[i], cols[j]) for every
// pair with mask[i][j] true (a nil mask scores everything); it is
// ScoreBatchMin without a floor.
func (e *Engine) ScoreBatch(ctx context.Context, rows, cols model.Dataset, mask [][]bool) ([][]float64, error) {
	return e.ScoreBatchMin(ctx, rows, cols, mask, math.Inf(-1))
}

// ScoreBatchMin computes scores[i][j] = Score(rows[i], cols[j]) for every
// pair with mask[i][j] true; masked-out pairs, NaN scores and scores below
// minScore get −Inf, so they rank last and never link. A −Inf (or NaN)
// floor scores every admissible pair exactly. Scoring runs on the engine's
// worker pool with ctx cancellation.
//
// With a measure-backed scorer, each needed trajectory's derived state is
// resolved once through the engine's LRU caches — repeated batches over the
// same data hit the cache instead of re-estimating speed models — and
// trajectories that appear in no admissible pair are never prepared at all
// (preparation is the dominant per-trajectory cost). A resident record
// passed as Get or Subset returned it resolves its record's own entries. A
// profiled engine scores through cached bucketed S-T profiles, collapsing
// every pair to a sparse dot-product merge. On an engine that can prune, a
// finite floor is enforced by filter-and-refine (scoreMinPair): pairs
// provably below it collapse to −Inf by the admissible profile upper bound
// or by early-exited refinement, so most never pay full scoring, while
// every entry at or above the floor is bit-identical to the unfloored
// matrix. This is the one rows × cols kernel: ScoreBatch, Sharded and the
// one-shot ScoreMatrix all run it, as resolve then scoreRows.
func (e *Engine) ScoreBatchMin(ctx context.Context, rows, cols model.Dataset, mask [][]bool, minScore float64) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := e.newBatch(rows, cols, mask, minScore)
	if err := b.resolve(ctx, e.workers, func(string) *Engine { return e }); err != nil {
		return nil, err
	}
	return e.scoreRows(ctx, b, 0, len(rows))
}

// batch is one rows × cols request and the derived state of its sides:
// side k is rows[k] for k < len(rows) and cols[k-len(rows)] after. prof
// and prep name the state the engines' shared configuration scores with
// under minScore, prune whether the floor is enforced bound first.
// resolve fills the state of every needed side; any engine of that
// configuration can then score any block of rows.
type batch struct {
	rows, cols model.Dataset
	mask       [][]bool
	minScore   float64
	prof, prep bool
	prune      bool
	profs      []*core.Profile
	preps      []*core.Prepared
}

func (e *Engine) newBatch(rows, cols model.Dataset, mask [][]bool, minScore float64) *batch {
	if math.IsNaN(minScore) {
		minScore = math.Inf(-1)
	}
	b := &batch{rows: rows, cols: cols, mask: mask, minScore: minScore}
	if e.measure != nil {
		b.prune = !math.IsInf(minScore, -1) && e.canPrune()
		b.prof = e.profOpts != nil || b.prune
		b.prep = e.profOpts == nil
	}
	return b
}

// resolve fills the derived state of every side that appears in an
// admissible pair, each from the caches of owner(its ID), on up to
// workers goroutines. The caches dedupe trajectories shared between the
// sides (or with earlier batches); lookups ask the profile cache before
// the prepared one.
func (b *batch) resolve(ctx context.Context, workers int, owner func(id string) *Engine) error {
	if !b.prof && !b.prep {
		return nil
	}
	n, m := len(b.rows), len(b.cols)
	needed := neededSides(n, m, b.mask)
	b.profs = make([]*core.Profile, n+m)
	b.preps = make([]*core.Prepared, n+m)
	return ForEach(ctx, n+m, workers, func(k int) error {
		if !needed[k] {
			return nil
		}
		var tr model.Trajectory
		if k < n {
			tr = b.rows[k]
		} else {
			tr = b.cols[k-n]
		}
		e := owner(tr.ID)
		key, load := e.keyFor(tr), inHand(tr)
		var err error
		if b.prof {
			if b.profs[k], _, err = e.profiled(key, load); err != nil {
				return err
			}
		}
		if b.prep {
			b.preps[k], err = e.prepared(key, load)
		}
		return err
	})
}

// scoreRows scores rows [lo, hi) of a resolved batch against every column
// on e's workers; e's prune counters count the block's decisions.
func (e *Engine) scoreRows(ctx context.Context, b *batch, lo, hi int) ([][]float64, error) {
	n := len(b.rows)
	var st pruneCounters
	defer func() {
		e.pstats.add(st.considered.Load(), st.boundPruned.Load(), st.earlyExited.Load(), st.refined.Load())
	}()
	var pm *core.Measure // nil selects the profiled scorer in scoreMinPair
	if e.profOpts == nil {
		pm = e.measure
	}
	return matrix(ctx, hi-lo, len(b.cols), e.workers, b.minScore, func(i, j int) (float64, error) {
		i += lo
		if b.mask != nil && !b.mask[i][j] {
			return math.Inf(-1), nil
		}
		x, y := i, n+j
		switch {
		case e.measure == nil:
			return e.scorer.Score(b.rows[i], b.cols[j])
		case b.prune:
			return scoreMinPair(pm, b.preps[x], b.preps[y], b.profs[x], b.profs[y], b.minScore, &st)
		case e.profOpts != nil:
			return core.SimilarityProfiled(b.profs[x], b.profs[y])
		default:
			return e.measure.SimilarityPrepared(b.preps[x], b.preps[y])
		}
	})
}

// ScoreMatrix scores rows × cols once, without a persistent engine — the
// matrix behind matching, linking and the facade's ScoreMatrixContext. It
// runs ScoreBatchMin on a transient engine whose caches are unbounded
// per-call memos keyed like the engine's: every distinct trajectory (a
// trajectory shared between rows and cols counts once) is prepared, and
// profiled if needed, exactly once; trajectories in no admissible pair are
// never prepared; and the memos and prune counters are dropped with the
// call. Long-lived callers that want caching across calls should hold an
// Engine.
//
// A ProfileScorer with non-nil options is scored through its bucketed
// profiles. A finite minScore floors the matrix as in ScoreBatchMin and,
// for a measure-backed scorer, builds profiles with bound data so the floor
// is enforced bound-first (bound-only profiles when the scorer is exact);
// other scorers are scored in full and floored.
func ScoreMatrix(ctx context.Context, s Scorer, rows, cols model.Dataset, mask [][]bool, minScore float64, workers int) ([][]float64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{scorer: s, workers: workers}
	if ms, ok := s.(MeasureScorer); ok {
		e.measure = ms.Measure()
		e.cache = newLRUCache[*core.Prepared](0, nil)
		if ps, ok := s.(ProfileScorer); ok {
			e.profOpts = ps.ProfileOptions()
		}
		e.setBoundOpts(!math.IsInf(minScore, -1) && !math.IsNaN(minScore))
		if e.profOpts != nil || e.boundOpts.Bounds {
			e.profiles = newLRUCache[*core.Profile](0, nil)
		}
	}
	return e.ScoreBatchMin(ctx, rows, cols, mask, minScore)
}

// neededSides marks the rows (indices 0..n-1) and columns (n..n+m-1) that
// appear in at least one admissible pair. A nil mask needs everything
// unless one side is empty.
func neededSides(n, m int, mask [][]bool) []bool {
	needed := make([]bool, n+m)
	if n == 0 || m == 0 {
		return needed
	}
	if mask == nil {
		for k := range needed {
			needed[k] = true
		}
		return needed
	}
	for i := range mask {
		for j, ok := range mask[i] {
			if ok {
				needed[i] = true
				needed[n+j] = true
			}
		}
	}
	return needed
}

// scoreMinPair evaluates one pair under a score floor: bound first, refine
// with early exit only if the bound passes. A nil measure selects the
// profiled scorer (fa/fb are then scoring profiles, pa/pb unused). Returns
// −Inf when the score is provably below minScore; any returned finite
// score is exact (identical to the unthresholded scorer).
func scoreMinPair(m *core.Measure, pa, pb *core.Prepared, fa, fb *core.Profile, minScore float64, st *pruneCounters) (float64, error) {
	st.considered.Add(1)
	var ub float64
	var err error
	if m == nil {
		ub, err = core.UpperBoundProfiled(fa, fb)
	} else {
		ub, err = core.UpperBound(fa, fb)
	}
	if err != nil {
		return 0, err
	}
	if ub < minScore {
		st.boundPruned.Add(1)
		return math.Inf(-1), nil
	}
	if ub == 0 {
		// An admissible zero bound certifies a floating-point-exact zero
		// score, and 0 >= minScore here — keep it, exactly as the
		// exhaustive matrix would.
		st.boundPruned.Add(1)
		return 0, nil
	}
	var v float64
	var ok bool
	if m == nil {
		v, ok, err = core.SimilarityProfiledThreshold(fa, fb, minScore)
	} else {
		v, ok, err = m.RefineThreshold(pa, pb, fa, fb, minScore)
	}
	if err != nil {
		return 0, err
	}
	if !ok {
		st.earlyExited.Add(1)
		return math.Inf(-1), nil
	}
	st.refined.Add(1)
	if v < minScore || math.IsNaN(v) {
		return math.Inf(-1), nil
	}
	return v, nil
}
