package engine_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/experiments"
)

// TestMatrixPathsBitIdentical pins every rows × cols path to the others
// bit for bit, on a masked taxi matrix, for exact and profiled scorers:
// Engine.ScoreBatch, Engine.ScoreBatchMin, a 2-shard Sharded and the
// one-shot ScoreMatrix all return the unfloored matrix with every masked
// and every sub-floor entry −Inf — no tolerance.
func TestMatrixPathsBitIdentical(t *testing.T) {
	sc := experiments.Taxi(24, 1)
	scorers, err := experiments.BuildScorers(sc, sc.GridSize, 0, []string{experiments.MethodSTS})
	if err != nil {
		t.Fatal(err)
	}
	exact := scorers[0].(*eval.STSScorer)
	profiled := eval.NewSTSScorerProfiled("STS-P", exact.Measure(), core.ProfileOptions{})
	rows, cols := sc.D1, sc.D2
	mask := make([][]bool, len(rows))
	for i := range mask {
		mask[i] = make([]bool, len(cols))
		for j := range mask[i] {
			// Row 0 and column 0 sit in no admissible pair.
			mask[i][j] = i > 0 && j > 0 && (i+2*j)%5 != 1
		}
	}
	ctx := context.Background()

	for _, s := range []*eval.STSScorer{exact, profiled} {
		t.Run(s.Name(), func(t *testing.T) {
			e, err := engine.New(s, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := engine.NewSharded(s, engine.ShardedOptions{
				Shards:       2,
				ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()

			base, err := e.ScoreBatch(ctx, rows, cols, mask)
			if err != nil {
				t.Fatal(err)
			}
			// Two floors taken from the admissible positive scores, so each
			// one keeps some pairs and floors others.
			var pos []float64
			for i := range base {
				for j, v := range base[i] {
					if !mask[i][j] && !math.IsInf(v, -1) {
						t.Fatalf("masked [%d][%d] = %v, want -Inf", i, j, v)
					}
					if v > 0 {
						pos = append(pos, v)
					}
				}
			}
			if len(pos) < 8 {
				t.Fatalf("only %d positive admissible scores; fixture is vacuous", len(pos))
			}
			sort.Float64s(pos)
			floors := []float64{math.Inf(-1), pos[len(pos)/4], pos[len(pos)/2]}

			for _, floor := range floors {
				want := make([][]float64, len(base))
				for i := range base {
					want[i] = append([]float64(nil), base[i]...)
					for j, v := range want[i] {
						if v < floor {
							want[i][j] = math.Inf(-1)
						}
					}
				}
				paths := []struct {
					name string
					run  func() ([][]float64, error)
				}{
					{"Engine.ScoreBatchMin", func() ([][]float64, error) { return e.ScoreBatchMin(ctx, rows, cols, mask, floor) }},
					{"Sharded.ScoreBatchMin", func() ([][]float64, error) { return sh.ScoreBatchMin(ctx, rows, cols, mask, floor) }},
					{"ScoreMatrix", func() ([][]float64, error) { return engine.ScoreMatrix(ctx, s, rows, cols, mask, floor, 2) }},
				}
				for _, p := range paths {
					got, err := p.run()
					if err != nil {
						t.Fatalf("%s floor=%g: %v", p.name, floor, err)
					}
					for i := range want {
						for j := range want[i] {
							if got[i][j] != want[i][j] {
								t.Fatalf("%s floor=%g [%d][%d] = %.17g, want %.17g",
									p.name, floor, i, j, got[i][j], want[i][j])
							}
						}
					}
				}
			}
			if ps := e.PruneStats(); ps.BoundPruned+ps.EarlyExited == 0 {
				t.Fatalf("floored calls pruned nothing (%+v); fixture is vacuous", ps)
			}
		})
	}
}
