package eval

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// countingScorer counts Score invocations, to prove masked pairs are
// never scored.
type countingScorer struct {
	calls atomic.Int64
}

func (c *countingScorer) Name() string { return "counting" }

func (c *countingScorer) Score(a, b model.Trajectory) (float64, error) {
	c.calls.Add(1)
	return a.Samples[0].Loc.X * b.Samples[0].Loc.X, nil
}

func TestScoreMatrixMaskedSkipsMaskedPairs(t *testing.T) {
	rows := model.Dataset{tagged("r0", 1), tagged("r1", 2)}
	cols := model.Dataset{tagged("c0", 3), tagged("c1", 5), tagged("c2", 7)}
	mask := [][]bool{
		{true, false, true},
		{false, false, true},
	}
	sc := &countingScorer{}
	m, err := engine.ScoreMatrix(context.Background(), sc, rows, cols, mask, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.calls.Load(); got != 3 {
		t.Errorf("scored %d pairs, want 3 (the unmasked ones)", got)
	}
	for i := range mask {
		for j := range mask[i] {
			if mask[i][j] {
				want := rows[i].Samples[0].Loc.X * cols[j].Samples[0].Loc.X
				if m[i][j] != want {
					t.Errorf("m[%d][%d]=%v want %v", i, j, m[i][j], want)
				}
			} else if !math.IsInf(m[i][j], -1) {
				t.Errorf("masked m[%d][%d]=%v want -Inf", i, j, m[i][j])
			}
		}
	}
}

func TestScoreMatrixMaskedNilMaskMatchesScoreMatrix(t *testing.T) {
	rows := model.Dataset{tagged("r0", 1), tagged("r1", 2)}
	cols := model.Dataset{tagged("c0", 3), tagged("c1", 5)}
	a, err := engine.ScoreMatrix(context.Background(), tagCloseness, rows, cols, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.ScoreMatrix(context.Background(), tagCloseness, rows, cols, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("[%d][%d]: masked-nil %v != plain %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// stsPair builds a pair of small trajectories with enough motion for a
// personalized speed model.
func stsWalk(id string, y float64) model.Trajectory {
	tr := model.Trajectory{ID: id}
	for k := 0; k < 6; k++ {
		tr.Samples = append(tr.Samples, model.Sample{
			Loc: geo.Point{X: float64(k) * 12, Y: y + 0.5*float64(k%3)},
			T:   float64(k) * 10,
		})
	}
	return tr
}

// TestSTSScorerParallelMatrixDeterministic scores the same matrix with one
// and with eight workers through one shared scorer: with -race this hammers
// the pooled zero-allocation scratch, and the comparison pins bit-for-bit
// determinism of the fast path under concurrency.
func TestSTSScorerParallelMatrixDeterministic(t *testing.T) {
	grid, err := geo.NewGrid(geo.Rect{Min: geo.Point{X: -10, Y: -10}, Max: geo.Point{X: 120, Y: 120}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSTSScorer("STS", m)
	var rows, cols model.Dataset
	for k := 0; k < 6; k++ {
		rows = append(rows, stsWalk("r", float64(k*15)))
		cols = append(cols, stsWalk("c", float64(k*15)+1))
	}
	serial, err := engine.ScoreMatrix(context.Background(), s, rows, cols, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		parallel, err := engine.ScoreMatrix(context.Background(), s, rows, cols, nil, math.Inf(-1), 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			for j := range serial[i] {
				if serial[i][j] != parallel[i][j] {
					t.Fatalf("trial %d: [%d][%d] serial %v != parallel %v",
						trial, i, j, serial[i][j], parallel[i][j])
				}
			}
		}
	}
}

// TestSTSScorerMaskedMatchesUnmasked pins the masked fast path of the STS
// scorer to the plain matrix at every unmasked position.
func TestSTSScorerMaskedMatchesUnmasked(t *testing.T) {
	grid, err := geo.NewGrid(geo.Rect{Min: geo.Point{X: -10, Y: -10}, Max: geo.Point{X: 120, Y: 120}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSTSScorer("STS", m)
	rows := model.Dataset{stsWalk("r0", 0), stsWalk("r1", 30), stsWalk("r2", 60)}
	cols := model.Dataset{stsWalk("c0", 1), stsWalk("c1", 31)}
	mask := [][]bool{
		{true, true},
		{false, true},
		{false, false}, // r2 appears in no pair: must not even be prepared
	}
	got, err := engine.ScoreMatrix(context.Background(), s, rows, cols, mask, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.ScoreMatrix(context.Background(), s, rows, cols, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mask {
		for j := range mask[i] {
			if mask[i][j] {
				if got[i][j] != want[i][j] {
					t.Errorf("[%d][%d]: masked %v != unmasked %v", i, j, got[i][j], want[i][j])
				}
			} else if !math.IsInf(got[i][j], -1) {
				t.Errorf("masked [%d][%d]=%v want -Inf", i, j, got[i][j])
			}
		}
	}
}
