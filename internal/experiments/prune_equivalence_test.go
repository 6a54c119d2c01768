package experiments

import (
	"context"
	"math"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// pruneEps is the maximum score deviation the pruned paths are allowed
// relative to exhaustive scoring. Completed refinements accumulate in the
// same order as the unthresholded scorers, so the expectation is bit
// equality; the epsilon only guards against platform-level FMA contraction
// differences.
const pruneEps = 1e-12

// pruneWorld builds the equivalence fixture for one scenario: an engine
// over sc.D2 with the filter-and-refine path enabled (exact or profiled
// scoring), configured as stsserved configures its engines.
func pruneWorld(t *testing.T, sc Scenario, profiled bool) *engine.Engine {
	t.Helper()
	scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Workers: 2}
	if profiled {
		opts.Profile = &core.ProfileOptions{}
	}
	eng, err := engine.New(scorers[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range sc.D2 {
		if _, err := eng.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// assertSameMatches requires identical result sets: same length, same IDs
// in the same order, scores equal to within pruneEps.
func assertSameMatches(t *testing.T, label string, want, got []engine.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches exhaustive vs %d pruned", label, len(want), len(got))
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: rank %d: %s exhaustive vs %s pruned", label, i, want[i].ID, got[i].ID)
		}
		if d := math.Abs(want[i].Score - got[i].Score); d > pruneEps || math.IsNaN(d) {
			t.Fatalf("%s: rank %d (%s): score %.17g exhaustive vs %.17g pruned (|Δ|=%g)",
				label, i, want[i].ID, want[i].Score, got[i].Score, d)
		}
	}
}

// prunedTopKEquivalence drives the golden property of the filter-and-refine
// engine: for every query, k, and score floor, the pruned top-k result set
// is identical to the exhaustive one (TopKOpts with Exhaustive as oracle).
func prunedTopKEquivalence(t *testing.T, sc Scenario, profiled bool) {
	t.Helper()
	eng := pruneWorld(t, sc, profiled)
	ctx := context.Background()
	queries := sc.D1
	if len(queries) > 6 {
		queries = queries[:6]
	}
	floors := []float64{math.Inf(-1), 0, 0.02}
	for _, q := range queries {
		for _, k := range []int{1, 5, 10} {
			for _, floor := range floors {
				want, err := eng.TopKOpts(ctx, q, engine.TopKOptions{K: k, MinScore: floor, Exhaustive: true})
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.TopKOpts(ctx, q, engine.TopKOptions{K: k, MinScore: floor})
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, q.ID, want, got)
			}
		}
	}
	if ps := eng.PruneStats(); ps.Considered == 0 {
		t.Error("pruned path never engaged: Considered == 0")
	}
}

func TestPrunedTopKEquivalenceMall(t *testing.T) {
	prunedTopKEquivalence(t, Mall(8, 1), false)
}

func TestPrunedTopKEquivalenceMallProfiled(t *testing.T) {
	prunedTopKEquivalence(t, Mall(8, 1), true)
}

func TestPrunedTopKEquivalenceTaxi(t *testing.T) {
	prunedTopKEquivalence(t, Taxi(24, 1), false)
}

func TestPrunedTopKEquivalenceTaxiProfiled(t *testing.T) {
	prunedTopKEquivalence(t, Taxi(24, 1), true)
}

// TestScoreBatchMinEquivalence pins the thresholded matrix against the
// exhaustive one with the floor applied after the fact: every pair at or
// above the floor keeps its exact score, every pair below it comes back
// -Inf.
func TestScoreBatchMinEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sc       Scenario
		profiled bool
	}{
		{"taxi", Taxi(24, 1), false},
		{"taxi/profiled", Taxi(24, 1), true},
		{"mall", Mall(8, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := pruneWorld(t, tc.sc, tc.profiled)
			ctx := context.Background()
			full, err := eng.ScoreBatch(ctx, tc.sc.D1, tc.sc.D2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, floor := range []float64{0.02, 0.1} {
				got, err := eng.ScoreBatchMin(ctx, tc.sc.D1, tc.sc.D2, nil, floor)
				if err != nil {
					t.Fatal(err)
				}
				for i := range full {
					for j := range full[i] {
						want := full[i][j]
						if want < floor || math.IsNaN(want) {
							want = math.Inf(-1)
						}
						d := math.Abs(want - got[i][j])
						if want == got[i][j] || d <= pruneEps {
							continue
						}
						t.Fatalf("floor=%g [%d][%d]: %.17g exhaustive vs %.17g thresholded",
							floor, i, j, want, got[i][j])
					}
				}
			}
		})
	}
}

// TestScoreMatrixMinEquivalence covers the one-shot eval entry point on
// both scorer kinds: measure-backed scorers run the filter-and-refine
// path, generic scorers score exhaustively and floor afterwards — the
// results must agree.
func TestScoreMatrixMinEquivalence(t *testing.T) {
	sc := Taxi(24, 1)
	scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
	if err != nil {
		t.Fatal(err)
	}
	ms := scorers[0]
	// The same measure wrapped as an opaque func: forces the generic path.
	generic := eval.FuncScorer{N: "STS-opaque", F: func(a, b model.Trajectory) (float64, error) {
		return ms.Score(a, b)
	}}
	const floor = 0.02
	pruned, err := engine.ScoreMatrix(context.Background(), ms, sc.D1, sc.D2, nil, floor, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := engine.ScoreMatrix(context.Background(), generic, sc.D1, sc.D2, nil, floor, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for j := range plain[i] {
			if plain[i][j] == pruned[i][j] {
				continue
			}
			if d := math.Abs(plain[i][j] - pruned[i][j]); !(d <= pruneEps) {
				t.Fatalf("[%d][%d]: %.17g generic vs %.17g pruned", i, j, plain[i][j], pruned[i][j])
			}
		}
	}
}

// TestGreedyLinkMinEquivalence pins linking on top of the pruned matrix:
// with a positive MinScore the measure-backed scorer routes through
// filter-and-refine, and the resulting one-to-one links must be identical
// to those computed from the exhaustively scored matrix.
func TestGreedyLinkMinEquivalence(t *testing.T) {
	sc := Taxi(24, 1)
	scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
	if err != nil {
		t.Fatal(err)
	}
	ms := scorers[0]
	generic := eval.FuncScorer{N: "STS-opaque", F: func(a, b model.Trajectory) (float64, error) {
		return ms.Score(a, b)
	}}
	for _, minScore := range []float64{1e-9, 0.05} {
		want, err := linking.GreedyLink(sc.D1, sc.D2, generic, linking.Options{MinScore: minScore, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := linking.GreedyLink(sc.D1, sc.D2, ms, linking.Options{MinScore: minScore, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("min=%g: %d links generic vs %d pruned", minScore, len(want), len(got))
		}
		for i := range want {
			if want[i].I != got[i].I || want[i].J != got[i].J {
				t.Fatalf("min=%g link %d: (%d,%d) generic vs (%d,%d) pruned",
					minScore, i, want[i].I, want[i].J, got[i].I, got[i].J)
			}
			if d := math.Abs(want[i].Score - got[i].Score); !(d <= pruneEps) {
				t.Fatalf("min=%g link %d: score %.17g vs %.17g", minScore, i, want[i].Score, got[i].Score)
			}
		}
	}
}
