package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// tagged builds a one-sample trajectory carrying a numeric tag in its X
// coordinate, for scorers that compare tags.
func tagged(id string, tag float64) model.Trajectory {
	return model.Trajectory{ID: id, Samples: []model.Sample{{Loc: geo.Point{X: tag}, T: 0}}}
}

// tagCloseness scores two tagged trajectories by how close their tags are.
var tagCloseness = FuncScorer{N: "tag", F: func(a, b model.Trajectory) (float64, error) {
	return -math.Abs(a.Samples[0].Loc.X - b.Samples[0].Loc.X), nil
}}

func TestRankOf(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		truth  int
		want   float64
	}{
		{"clear winner", []float64{0.9, 0.1, 0.2}, 0, 1},
		{"clear loser", []float64{0.9, 0.1, 0.2}, 1, 3},
		{"middle", []float64{0.9, 0.1, 0.2}, 2, 2},
		{"two-way tie for first", []float64{0.9, 0.9, 0.2}, 0, 1.5},
		{"all tied", []float64{0.5, 0.5, 0.5}, 1, 2},
		{"single", []float64{0.3}, 0, 1},
	}
	for _, tt := range tests {
		if got := RankOf(tt.scores, tt.truth); got != tt.want {
			t.Errorf("%s: RankOf=%v want %v", tt.name, got, tt.want)
		}
	}
}

func TestMatchingPerfectScorer(t *testing.T) {
	var d1, d2 model.Dataset
	for i := 0; i < 6; i++ {
		d1 = append(d1, tagged("a", float64(i*10)))
		d2 = append(d2, tagged("b", float64(i*10)+0.1))
	}
	res, err := Matching(d1, d2, tagCloseness, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != 1 || res.MeanRank != 1 {
		t.Errorf("precision=%v meanRank=%v", res.Precision, res.MeanRank)
	}
	if len(res.Ranks) != 6 {
		t.Errorf("ranks=%v", res.Ranks)
	}
}

func TestMatchingAdversarialScorer(t *testing.T) {
	// A scorer that prefers the *farthest* tag ranks the twin last.
	worst := FuncScorer{N: "worst", F: func(a, b model.Trajectory) (float64, error) {
		return math.Abs(a.Samples[0].Loc.X - b.Samples[0].Loc.X), nil
	}}
	var d1, d2 model.Dataset
	for i := 0; i < 4; i++ {
		d1 = append(d1, tagged("a", float64(i)))
		d2 = append(d2, tagged("b", float64(i)))
	}
	res, err := Matching(d1, d2, worst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != 0 {
		t.Errorf("precision=%v want 0", res.Precision)
	}
	if res.MeanRank <= 2 {
		t.Errorf("meanRank=%v", res.MeanRank)
	}
}

func TestMatchingErrors(t *testing.T) {
	d := model.Dataset{tagged("a", 1)}
	if _, err := Matching(d, model.Dataset{}, tagCloseness, 1); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch: %v", err)
	}
	if _, err := Matching(model.Dataset{}, model.Dataset{}, tagCloseness, 1); err == nil {
		t.Error("empty datasets accepted")
	}
	failing := FuncScorer{N: "fail", F: func(a, b model.Trajectory) (float64, error) {
		return 0, errors.New("boom")
	}}
	if _, err := Matching(d, d, failing, 1); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("scorer error not propagated: %v", err)
	}
}

func TestScoreMatrixParallelMatchesSerial(t *testing.T) {
	var rows, cols model.Dataset
	for i := 0; i < 9; i++ {
		rows = append(rows, tagged("r", float64(i)))
		cols = append(cols, tagged("c", float64(i*2)))
	}
	serial, err := engine.ScoreMatrix(context.Background(), tagCloseness, rows, cols, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := engine.ScoreMatrix(context.Background(), tagCloseness, rows, cols, nil, math.Inf(-1), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("matrix differs at %d,%d", i, j)
			}
		}
	}
}

func TestScoreMatrixSanitizesNaN(t *testing.T) {
	nanScorer := FuncScorer{N: "nan", F: func(a, b model.Trajectory) (float64, error) {
		return math.NaN(), nil
	}}
	m, err := engine.ScoreMatrix(context.Background(), nanScorer, model.Dataset{tagged("a", 1)}, model.Dataset{tagged("b", 2)}, nil, math.Inf(-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m[0][0], -1) {
		t.Errorf("NaN not sanitized: %v", m[0][0])
	}
}

func TestFromDistance(t *testing.T) {
	s := FromDistance("d", func(a, b model.Trajectory) float64 {
		return math.Abs(a.Samples[0].Loc.X - b.Samples[0].Loc.X)
	})
	if s.Name() != "d" {
		t.Error("name")
	}
	near, _ := s.Score(tagged("a", 0), tagged("b", 1))
	far, _ := s.Score(tagged("a", 0), tagged("b", 10))
	if near <= far {
		t.Errorf("near=%v far=%v (negation broken)", near, far)
	}
}

func TestFromDistanceNaNBecomesNegInf(t *testing.T) {
	for name, d := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1)} {
		s := FromDistance("d", func(a, b model.Trajectory) float64 { return d })
		v, err := s.Score(tagged("a", 0), tagged("b", 1))
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(v, -1) {
			t.Errorf("%s distance scored %v, want -Inf (ranks last instead of poisoning comparisons)", name, v)
		}
	}
}

func TestParallelForPropagatesError(t *testing.T) {
	err := parallelFor(100, 4, func(i int) error {
		if i == 37 {
			return errors.New("item 37 failed")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "37") {
		t.Errorf("err=%v", err)
	}
}

func TestParallelForZeroItems(t *testing.T) {
	if err := parallelFor(0, 4, func(i int) error { return errors.New("never") }); err != nil {
		t.Errorf("err=%v", err)
	}
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := model.Dataset{tagged("a", 0), tagged("b", 1), tagged("c", 2)}
	pairs, err := RandomPairs(ds, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p.A.ID == p.B.ID {
			t.Fatal("pair of a trajectory with itself")
		}
	}
	if _, err := RandomPairs(ds[:1], 5, rng); err == nil {
		t.Error("single-trajectory dataset accepted")
	}
}

func TestCrossSimilarityDeviation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Long tagged trajectories so down-sampling has something to drop.
	mk := func(id string, tag float64) model.Trajectory {
		tr := model.Trajectory{ID: id}
		for i := 0; i < 30; i++ {
			tr.Samples = append(tr.Samples, model.Sample{Loc: geo.Point{X: tag}, T: float64(i)})
		}
		return tr
	}
	pairs := []Pair{{A: mk("a", 1), B: mk("b", 2)}, {A: mk("c", 5), B: mk("d", 9)}}
	// A scorer invariant to sampling has zero deviation.
	invariant := FuncScorer{N: "inv", F: func(a, b model.Trajectory) (float64, error) {
		return 1 / (1 + math.Abs(a.Samples[0].Loc.X-b.Samples[0].Loc.X)), nil
	}}
	dev, used, err := CrossSimilarityDeviation(pairs, invariant, 0.5, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if used != 2 || dev != 0 {
		t.Errorf("invariant scorer: dev=%v used=%d", dev, used)
	}
	// A length-sensitive scorer has positive deviation.
	lengthy := FuncScorer{N: "len", F: func(a, b model.Trajectory) (float64, error) {
		return float64(a.Len() + b.Len()), nil
	}}
	dev, used, err = CrossSimilarityDeviation(pairs, lengthy, 0.5, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if used != 2 || dev <= 0 {
		t.Errorf("length-sensitive scorer: dev=%v used=%d", dev, used)
	}
}

func TestCrossSimilaritySweepMatchesSingle(t *testing.T) {
	mk := func(id string, tag float64) model.Trajectory {
		tr := model.Trajectory{ID: id}
		for i := 0; i < 30; i++ {
			tr.Samples = append(tr.Samples, model.Sample{Loc: geo.Point{X: tag}, T: float64(i)})
		}
		return tr
	}
	pairs := []Pair{{A: mk("a", 1), B: mk("b", 2)}}
	lengthy := FuncScorer{N: "len", F: func(a, b model.Trajectory) (float64, error) {
		return float64(a.Len() + b.Len()), nil
	}}
	devs, err := CrossSimilaritySweep(pairs, lengthy, []float64{0.3, 0.6}, rand.New(rand.NewSource(3)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 {
		t.Fatalf("got %d deviations", len(devs))
	}
	// Heavier down-sampling → larger deviation for a length-sensitive
	// scorer.
	if devs[0] <= devs[1] {
		t.Errorf("deviation not decreasing in rate: %v", devs)
	}
}

func TestCrossSimilarityAllZeroBaselines(t *testing.T) {
	zero := FuncScorer{N: "zero", F: func(a, b model.Trajectory) (float64, error) {
		return 0, nil
	}}
	mk := func(id string) model.Trajectory {
		tr := model.Trajectory{ID: id}
		for i := 0; i < 10; i++ {
			tr.Samples = append(tr.Samples, model.Sample{T: float64(i)})
		}
		return tr
	}
	pairs := []Pair{{A: mk("a"), B: mk("b")}}
	if _, _, err := CrossSimilarityDeviation(pairs, zero, 0.5, rand.New(rand.NewSource(4)), 1); err == nil {
		t.Error("all-zero baselines should error")
	}
	if _, err := CrossSimilaritySweep(pairs, zero, []float64{0.5}, rand.New(rand.NewSource(5)), 1); err == nil {
		t.Error("all-zero baselines should error (sweep)")
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	values := make([]float64, 200)
	for i := range values {
		values[i] = 5 + rng.NormFloat64()
	}
	lo, hi, err := BootstrapCI(values, 500, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < 5 && 5 < hi) {
		t.Errorf("CI [%v, %v] does not cover the true mean", lo, hi)
	}
	if hi-lo > 1 {
		t.Errorf("CI [%v, %v] too wide for n=200", lo, hi)
	}
	// Degenerate inputs.
	if _, _, err := BootstrapCI(nil, 100, 0.95, rng); err == nil {
		t.Error("empty values accepted")
	}
	if _, _, err := BootstrapCI(values, 0, 0.95, rng); err == nil {
		t.Error("zero iters accepted")
	}
	if _, _, err := BootstrapCI(values, 100, 1.5, rng); err == nil {
		t.Error("conf > 1 accepted")
	}
	// Constant values: zero-width interval.
	c := []float64{3, 3, 3}
	lo, hi, err = BootstrapCI(c, 100, 0.9, rng)
	if err != nil || lo != 3 || hi != 3 {
		t.Errorf("constant CI [%v, %v], err %v", lo, hi, err)
	}
}
