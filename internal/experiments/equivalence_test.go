package experiments

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// equivTol is the bound on the divergence between the lattice-offset
// memoized transition path and the original per-location evaluation. The
// two compute the same sums with the same operands; only the association
// order of a handful of float multiplications differs.
const equivTol = 1e-12

// scoreBoth scores D1×D2 with the radial fast path and with the generic
// path (StripRadial) of otherwise identical measures.
func scoreBoth(t *testing.T, sc Scenario, opts core.Options) (fast, slow [][]float64) {
	t.Helper()
	fastM, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	slowOpts := opts
	prov := opts.Provider
	if prov == nil {
		prov = core.PersonalizedSpeed{}
	}
	slowOpts.Provider = core.StripRadial{Provider: prov}
	slowM, err := core.New(slowOpts)
	if err != nil {
		t.Fatal(err)
	}
	fast, err = engine.ScoreMatrix(context.Background(), eval.NewSTSScorer("fast", fastM), sc.D1, sc.D2, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err = engine.ScoreMatrix(context.Background(), eval.NewSTSScorer("slow", slowM), sc.D1, sc.D2, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	return fast, slow
}

// assertEquivalent checks element-wise agreement within equivTol and that
// every row ranks its columns identically.
func assertEquivalent(t *testing.T, name string, fast, slow [][]float64) {
	t.Helper()
	var worst float64
	for i := range fast {
		for j := range fast[i] {
			if d := math.Abs(fast[i][j] - slow[i][j]); d > worst {
				worst = d
			}
		}
		if rf, rs := ranking(fast[i]), ranking(slow[i]); !equalInts(rf, rs) {
			t.Errorf("%s: row %d ranking differs: fast %v slow %v", name, i, rf, rs)
		}
	}
	t.Logf("%s: worst |fast-slow| = %g", name, worst)
	if worst > equivTol {
		t.Errorf("%s: memoized path deviates from generic path by %g > %g", name, worst, equivTol)
	}
}

func ranking(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEquivalenceMallTruncated pins the memoized path against the generic
// path on the mall scenario with default truncation.
func TestEquivalenceMallTruncated(t *testing.T) {
	sc := Mall(10, 11)
	grid, err := sc.Grid(sc.GridSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := scoreBoth(t, sc, core.Options{
		Grid:  grid,
		Noise: stprob.GaussianNoise{Sigma: sc.Sigma(0)},
	})
	assertEquivalent(t, "mall/truncated", fast, slow)
}

// TestEquivalenceTaxiTruncated is the taxi counterpart.
func TestEquivalenceTaxiTruncated(t *testing.T) {
	sc := Taxi(8, 13)
	grid, err := sc.Grid(sc.GridSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := scoreBoth(t, sc, core.Options{
		Grid:  grid,
		Noise: stprob.GaussianNoise{Sigma: sc.Sigma(0)},
	})
	assertEquivalent(t, "taxi/truncated", fast, slow)
}

// TestEquivalenceMallExact pins the memoized path in Exact mode, where
// every sum ranges over all |R| cells — the literal Eq. 4 / Algorithm 1
// evaluation. A handful of trajectories on a coarse grid keeps it fast.
func TestEquivalenceMallExact(t *testing.T) {
	sc := Mall(6, 17)
	sc.D1 = sc.D1[:3]
	sc.D2 = sc.D2[:3]
	grid, err := sc.Grid(3*sc.GridSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := scoreBoth(t, sc, core.Options{
		Grid:  grid,
		Noise: stprob.GaussianNoise{Sigma: sc.Sigma(0)},
		Exact: true,
	})
	assertEquivalent(t, "mall/exact", fast, slow)
}

// massExactProvider backs transitions with the kernel estimator's exact
// sum (no table, no interpolation), in both generic and radial form, so
// the memoized path can be pinned against massExact-grade transitions.
type massExactProvider struct{ radial bool }

func (p massExactProvider) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	sm, err := kde.NewSpeedModel(tr)
	if err != nil {
		return stprob.TransitionSpec{}, err
	}
	est := sm.Estimator()
	trans := func(a geo.Point, ta float64, b geo.Point, tb float64) float64 {
		return massExactTransition(est, a.Dist(b), math.Abs(ta-tb))
	}
	spec := stprob.TransitionSpec{Trans: trans, MaxSpeed: sm.MaxSpeed()}
	if p.radial {
		spec.Radial = func(d, dt float64) float64 {
			return massExactTransition(est, d, math.Abs(dt))
		}
	}
	return spec, nil
}

func massExactTransition(est *kde.Estimator, d, dt float64) float64 {
	if dt == 0 {
		if d == 0 {
			return 1
		}
		return 0
	}
	return est.Mass(d / dt)
}

// TestEquivalenceMassExactTransitions runs both paths on transitions that
// evaluate the exact kernel sum: any divergence is purely the memoization
// machinery, with the tabulated fast path out of the picture.
func TestEquivalenceMassExactTransitions(t *testing.T) {
	if testing.Short() {
		t.Skip("exact kernel sums are slow")
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"mall", Mall(6, 19)},
		{"taxi", Taxi(6, 23)},
	} {
		sc := tc.sc
		sc.D1 = sc.D1[:min(3, len(sc.D1))]
		sc.D2 = sc.D2[:min(3, len(sc.D2))]
		grid, err := sc.Grid(sc.GridSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		fast, slow := scoreBoth(t, sc, core.Options{
			Grid:     grid,
			Noise:    stprob.GaussianNoise{Sigma: sc.Sigma(0)},
			Provider: massExactProvider{radial: true},
		})
		assertEquivalent(t, tc.name+"/massExact", fast, slow)
	}
}
