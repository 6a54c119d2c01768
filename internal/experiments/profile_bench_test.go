package experiments

import (
	"context"
	"math"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
)

// BenchmarkProfileMatrixTaxi mirrors the profile_matrix/taxi/grid=100 row of
// the stsbench perf suite (profile build + sparse-merge scoring) so the
// bucket-merge hot path can be profiled with plain `go test -bench`.
func BenchmarkProfileMatrixTaxi(b *testing.B) {
	sc := Taxi(24, 1)
	scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
	if err != nil {
		b.Fatal(err)
	}
	ps := eval.NewSTSScorerProfiled("STS-P", scorers[0].(*eval.STSScorer).Measure(), core.ProfileOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.ScoreMatrix(context.Background(), ps, sc.D1, sc.D2, nil, math.Inf(-1), 1); err != nil {
			b.Fatal(err)
		}
	}
}
