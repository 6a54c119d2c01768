package sts_test

import (
	"testing"

	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/experiments"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// BenchmarkLinking compares the greedy and Hungarian linkers on the taxi
// split, reporting their linking precision.
func BenchmarkLinking(b *testing.B) {
	_, taxi := benchScenarios(b)
	scorer := pairScorers(b, taxi, []string{experiments.MethodSTS})[0]
	opts := linking.Options{MinScore: 1e-9, Workers: 1}
	for _, tc := range []struct {
		name string
		f    func(d1, d2 model.Dataset, s eval.Scorer, o linking.Options) ([]linking.Link, error)
	}{
		{"greedy", linking.GreedyLink},
		{"optimal", linking.OptimalLink},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var precision float64
			for i := 0; i < b.N; i++ {
				links, err := tc.f(taxi.D1, taxi.D2, scorer, opts)
				if err != nil {
					b.Fatal(err)
				}
				correct := 0
				for _, l := range links {
					if l.I == l.J {
						correct++
					}
				}
				if len(links) > 0 {
					precision = float64(correct) / float64(len(links))
				}
			}
			b.ReportMetric(precision, "link-precision")
		})
	}
}
