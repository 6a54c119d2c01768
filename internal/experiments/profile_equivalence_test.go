package experiments

import (
	"context"
	"math"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/stprob"
)

// profiledDeviations scores D1×D2 exactly and with bucketed profiles at
// each width, returning the worst element-wise |exact − profiled| per
// width.
func profiledDeviations(t *testing.T, sc Scenario, widths []float64) []float64 {
	t.Helper()
	grid, err := sc.Grid(sc.GridSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Options{Grid: grid, Noise: stprob.GaussianNoise{Sigma: sc.Sigma(0)}})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := engine.ScoreMatrix(context.Background(), eval.NewSTSScorer("exact", m), sc.D1, sc.D2, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]float64, len(widths))
	for k, w := range widths {
		scorer := eval.NewSTSScorerProfiled("profiled", m, core.ProfileOptions{BucketSeconds: w})
		prof, err := engine.ScoreMatrix(context.Background(), scorer, sc.D1, sc.D2, nil, math.Inf(-1), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			for j := range exact[i] {
				if d := math.Abs(exact[i][j] - prof[i][j]); d > devs[k] {
					devs[k] = d
				}
			}
		}
		t.Logf("%s: bucket=%gs worst |exact-profiled| = %g", sc.Name, w, devs[k])
	}
	return devs
}

// assertConverges pins the convergence property of the bucketed profile
// approximation: the deviation from the exact Eq. 10 scores never grows as
// the bucket width shrinks, and the per-width golden bounds hold. The
// bounds carry ~1.5× headroom over measured values on these fixed-seed
// fixtures; a regression that loosens the approximation trips them.
func assertConverges(t *testing.T, name string, widths, devs, bounds []float64) {
	t.Helper()
	for k := range devs {
		if devs[k] > bounds[k] {
			t.Errorf("%s: bucket=%gs deviation %g exceeds golden bound %g",
				name, widths[k], devs[k], bounds[k])
		}
		if k > 0 && devs[k] > devs[k-1]*1.02+1e-9 {
			t.Errorf("%s: deviation grew as buckets shrank: %g @ %gs vs %g @ %gs",
				name, devs[k], widths[k], devs[k-1], widths[k-1])
		}
	}
	if last, first := devs[len(devs)-1], devs[0]; last > first/4 {
		t.Errorf("%s: bound barely tightened: %g @ %gs vs %g @ %gs",
			name, last, widths[len(widths)-1], first, widths[0])
	}
}

// TestProfiledConvergenceMall: pedestrians move ~1 m/s over 3 m cells, so
// even coarse buckets stay within a cell or two of the true location and
// deviations are small in absolute terms.
func TestProfiledConvergenceMall(t *testing.T) {
	widths := []float64{240, 60, 30, 15, 3.75}
	devs := profiledDeviations(t, Mall(8, 11), widths)
	bounds := []float64{0.016, 0.0086, 0.0084, 0.0049, 0.00072}
	assertConverges(t, "mall", widths, devs, bounds)
}

// TestProfiledConvergenceTaxi: taxis cross several 100 m cells per default
// bucket, so coarse-width deviations are large — the interesting property
// is that they collapse as the width shrinks below the 15 s report period.
func TestProfiledConvergenceTaxi(t *testing.T) {
	widths := []float64{240, 60, 30, 15, 3.75}
	devs := profiledDeviations(t, Taxi(12, 13), widths)
	bounds := []float64{0.56, 0.46, 0.44, 0.29, 0.042}
	assertConverges(t, "taxi", widths, devs, bounds)
}
