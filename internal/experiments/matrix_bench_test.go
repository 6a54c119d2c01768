package experiments

import (
	"context"
	"math"
	"testing"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
)

// BenchmarkMatrixScoringMallFine mirrors the matrix_scoring/mall/grid=1.5
// row of the stsbench perf suite (the finest-grid, most cache-sensitive
// regime) so the hot path can be profiled with plain `go test -bench`.
func BenchmarkMatrixScoringMallFine(b *testing.B) {
	sc := Mall(8, 1)
	scorers, err := BuildScorers(sc, sc.GridSize*0.5, 0, []string{MethodSTS})
	if err != nil {
		b.Fatal(err)
	}
	ms := scorers[0].(*eval.STSScorer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ScoreMatrix(context.Background(), ms, sc.D1, sc.D2, nil, math.Inf(-1), 1); err != nil {
			b.Fatal(err)
		}
	}
}
