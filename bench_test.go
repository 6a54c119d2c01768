// Benchmarks regenerating, at reduced scale, every evaluation artifact of
// the paper (Figures 4–14), plus micro-benchmarks of the hot paths and
// ablation benches for the implementation's own design choices.
//
// The figure benches each run one reduced sweep per iteration and report
// the headline metric (precision, mean rank, deviation, or runtime) via
// b.ReportMetric, so `go test -bench=.` both times the harness and
// surfaces the reproduced numbers. cmd/stsbench runs the same sweeps at
// full scale.
package sts_test

import (
	"sync"
	"testing"

	"github.com/stslib/sts/internal/baseline"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/experiments"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/markov"
	"github.com/stslib/sts/internal/stprob"
)

// benchCfg is the reduced configuration every figure bench runs under:
// small datasets and a thinned sweep so one iteration stays in seconds.
var benchCfg = experiments.Config{
	N:     8,
	Seed:  1,
	Rates: []float64{0.2, 0.5, 0.8},
	Pairs: 20,
}

var (
	scOnce sync.Once
	scMall experiments.Scenario
	scTaxi experiments.Scenario
)

func benchScenarios(b *testing.B) (mall, taxi experiments.Scenario) {
	b.Helper()
	scOnce.Do(func() {
		scMall = experiments.Mall(benchCfg.N, benchCfg.Seed)
		scTaxi = experiments.Taxi(benchCfg.N, benchCfg.Seed)
	})
	return scMall, scTaxi
}

// --- Figure benches: one per evaluation artifact ---

func BenchmarkFig4PrecisionVsSamplingRate(b *testing.B) {
	mall, taxi := benchScenarios(b)
	for _, sc := range []experiments.Scenario{mall, taxi} {
		b.Run(sc.Name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				prec, _, err := experiments.SamplingRateSweep(sc, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				col, _ := prec.Column(experiments.MethodSTS)
				last = col[len(col)-1]
			}
			b.ReportMetric(last, "STS-precision@0.8")
		})
	}
}

func BenchmarkFig5MeanRankVsSamplingRate(b *testing.B) {
	mall, _ := benchScenarios(b)
	var last float64
	for i := 0; i < b.N; i++ {
		_, rank, err := experiments.SamplingRateSweep(mall, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := rank.Column(experiments.MethodSTS)
		last = col[0]
	}
	b.ReportMetric(last, "STS-meanrank@0.2")
}

func BenchmarkFig6PrecisionVsHeterogeneous(b *testing.B) {
	mall, _ := benchScenarios(b)
	var last float64
	for i := 0; i < b.N; i++ {
		prec, _, err := experiments.HeterogeneousSweep(mall, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := prec.Column(experiments.MethodSTS)
		last = col[0]
	}
	b.ReportMetric(last, "STS-precision@0.2")
}

func BenchmarkFig7MeanRankVsHeterogeneous(b *testing.B) {
	_, taxi := benchScenarios(b)
	var last float64
	for i := 0; i < b.N; i++ {
		_, rank, err := experiments.HeterogeneousSweep(taxi, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := rank.Column(experiments.MethodSTS)
		last = col[0]
	}
	b.ReportMetric(last, "STS-meanrank@0.2")
}

func BenchmarkFig8PrecisionVsNoise(b *testing.B) {
	mall, taxi := benchScenarios(b)
	for _, sc := range []experiments.Scenario{mall, taxi} {
		// Thin the noise sweep to its extremes for the bench.
		thin := sc
		thin.NoiseLevels = []float64{sc.NoiseLevels[0], sc.NoiseLevels[len(sc.NoiseLevels)-1]}
		b.Run(sc.Name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				prec, _, err := experiments.NoiseSweep(thin, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				col, _ := prec.Column(experiments.MethodSTS)
				last = col[len(col)-1]
			}
			b.ReportMetric(last, "STS-precision@maxnoise")
		})
	}
}

func BenchmarkFig9MeanRankVsNoise(b *testing.B) {
	mall, _ := benchScenarios(b)
	thin := mall
	thin.NoiseLevels = []float64{mall.NoiseLevels[len(mall.NoiseLevels)-1]}
	var last float64
	for i := 0; i < b.N; i++ {
		_, rank, err := experiments.NoiseSweep(thin, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := rank.Column(experiments.MethodSTS)
		last = col[0]
	}
	b.ReportMetric(last, "STS-meanrank@maxnoise")
}

func BenchmarkFig10Ablation(b *testing.B) {
	mall, taxi := benchScenarios(b)
	for _, sc := range []experiments.Scenario{mall, taxi} {
		b.Run(sc.Name, func(b *testing.B) {
			var full, noNoise float64
			for i := 0; i < b.N; i++ {
				prec, _, err := experiments.Ablation(sc, benchCfg)
				if err != nil {
					b.Fatal(err)
				}
				f, _ := prec.Column("STS")
				n, _ := prec.Column("STS-N")
				full, noNoise = f[0], n[0]
			}
			b.ReportMetric(full, "STS-precision")
			b.ReportMetric(noNoise, "STSN-precision")
		})
	}
}

func BenchmarkFig11CrossSimilarity(b *testing.B) {
	mall, _ := benchScenarios(b)
	var dev float64
	for i := 0; i < b.N; i++ {
		tab, err := experiments.CrossSim(mall, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := tab.Column(experiments.MethodSTS)
		dev = col[0]
	}
	b.ReportMetric(dev, "STS-deviation@0.2")
}

func BenchmarkFig12GridSizeTime(b *testing.B) {
	_, taxi := benchScenarios(b)
	thin := taxi
	thin.GridSizes = []float64{100, 250}
	var fine, coarse float64
	for i := 0; i < b.N; i++ {
		timing, _, _, err := experiments.GridSweep(thin, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := timing.Column("time(s)")
		fine, coarse = col[0], col[1]
	}
	b.ReportMetric(fine, "s@100m")
	b.ReportMetric(coarse, "s@250m")
}

func BenchmarkFig13GridSizePrecision(b *testing.B) {
	_, taxi := benchScenarios(b)
	thin := taxi
	thin.GridSizes = []float64{100, 250}
	var p float64
	for i := 0; i < b.N; i++ {
		_, prec, _, err := experiments.GridSweep(thin, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := prec.Column("precision")
		p = col[0]
	}
	b.ReportMetric(p, "precision@100m")
}

func BenchmarkFig14GridSizeMeanRank(b *testing.B) {
	_, taxi := benchScenarios(b)
	thin := taxi
	thin.GridSizes = []float64{100, 250}
	var r float64
	for i := 0; i < b.N; i++ {
		_, _, rank, err := experiments.GridSweep(thin, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		col, _ := rank.Column("mean rank")
		r = col[0]
	}
	b.ReportMetric(r, "meanrank@100m")
}

// --- Micro-benchmarks of the hot paths ---

func pairScorers(b *testing.B, sc experiments.Scenario, methods []string) []eval.Scorer {
	b.Helper()
	scorers, err := experiments.BuildScorers(sc, sc.GridSize, 0, methods)
	if err != nil {
		b.Fatal(err)
	}
	return scorers
}

func BenchmarkSTSPairMall(b *testing.B) {
	mall, _ := benchScenarios(b)
	s := pairScorers(b, mall, []string{experiments.MethodSTS})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Score(mall.D1[0], mall.D2[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTSPairTaxi(b *testing.B) {
	_, taxi := benchScenarios(b)
	s := pairScorers(b, taxi, []string{experiments.MethodSTS})[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Score(taxi.D1[0], taxi.D2[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTSPrepare times the eager part of preparation: the speed
// model's bandwidth and speed bound and the observations' noise
// distributions. The KDE mass table is built at the first interpolation,
// which this benchmark never reaches.
func BenchmarkSTSPrepare(b *testing.B) {
	mall, _ := benchScenarios(b)
	grid, err := mall.Grid(mall.GridSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewSTS(grid, mall.Sigma(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Prepare(mall.D1[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDEMassFast times one tabulated mass lookup. Each call also
// checks that the lazily built table exists (one atomic load and one
// branch), which keeps the table fields from being hoisted out of this
// isolated loop.
func BenchmarkKDEMassFast(b *testing.B) {
	mall, _ := benchScenarios(b)
	sm, err := kde.NewSpeedModel(mall.Base[0])
	if err != nil {
		b.Fatal(err)
	}
	est := sm.Estimator()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += est.MassFast(1.0 + float64(i%100)/50)
	}
	_ = sink
}

func BenchmarkBaselinePairs(b *testing.B) {
	mall, _ := benchScenarios(b)
	for _, name := range []string{
		experiments.MethodCATS, experiments.MethodSST, experiments.MethodWGM,
		experiments.MethodAPM, experiments.MethodEDwP, experiments.MethodKF,
	} {
		s := pairScorers(b, mall, []string{name})[0]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Score(mall.D1[0], mall.D2[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDTWPair(b *testing.B) {
	mall, _ := benchScenarios(b)
	for i := 0; i < b.N; i++ {
		baseline.DTW(mall.D1[0], mall.D2[1])
	}
}

// --- Ablation benches for this implementation's design choices ---

// BenchmarkAblationSupportTruncation quantifies the support-truncation
// optimization: the same similarity under the truncated evaluator vs the
// exact full-grid sums of Eq. 4, on a coarse grid where the exact mode is
// affordable. The reported metrics show the two agree while the exact
// mode costs orders of magnitude more.
func BenchmarkAblationSupportTruncation(b *testing.B) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -50, Y: -50}, geo.Point{X: 250, Y: 200}), 10)
	if err != nil {
		b.Fatal(err)
	}
	mall, _ := benchScenarios(b)
	a, t2 := mall.D1[0], mall.D2[0]
	for _, mode := range []struct {
		name  string
		exact bool
	}{{"truncated", false}, {"exact", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := core.New(core.Options{
				Grid:  g,
				Noise: stprob.GaussianNoise{Sigma: mall.Sigma(0)},
				Exact: mode.exact,
			})
			if err != nil {
				b.Fatal(err)
			}
			var v float64
			for i := 0; i < b.N; i++ {
				v, err = m.Similarity(a, t2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v, "similarity")
		})
	}
}

// BenchmarkAblationBandwidth compares Silverman's rule against fixed
// bandwidths for the speed KDE: the metric reported is the twin-vs-other
// separation ratio, showing the measure is not overly sensitive to the
// bandwidth rule.
func BenchmarkAblationBandwidth(b *testing.B) {
	mall, _ := benchScenarios(b)
	speeds := mall.Base[0].Speeds()
	for _, tc := range []struct {
		name string
		h    float64 // 0 = Silverman
	}{{"silverman", 0}, {"fixed-0.1", 0.1}, {"fixed-0.5", 0.5}} {
		b.Run(tc.name, func(b *testing.B) {
			var est *kde.Estimator
			var err error
			for i := 0; i < b.N; i++ {
				if tc.h == 0 {
					est, err = kde.New(speeds)
				} else {
					est, err = kde.NewWithBandwidth(speeds, tc.h)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(est.Bandwidth(), "bandwidth")
			b.ReportMetric(est.Mass(est.Mean()), "mass-at-mean")
		})
	}
}

// BenchmarkAblationTransitionModels compares the cost of one similarity
// under each transition estimator: personalized KDE (STS), pooled KDE
// (STS-G), frequency Markov (STS-F), and the Brownian random walk the
// related work uses.
func BenchmarkAblationTransitionModels(b *testing.B) {
	mall, _ := benchScenarios(b)
	grid, err := mall.Grid(mall.GridSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	sigma := mall.Sigma(0)
	pooled, err := kde.NewPooledSpeedModel(mall.Base)
	if err != nil {
		b.Fatal(err)
	}
	freq, err := markov.Train(grid, mall.Base, 1)
	if err != nil {
		b.Fatal(err)
	}
	brownian := stprob.BrownianTransition(1.5)
	measures := []struct {
		name string
		m    *core.Measure
	}{}
	add := func(name string, m *core.Measure, err error) {
		if err != nil {
			b.Fatal(err)
		}
		measures = append(measures, struct {
			name string
			m    *core.Measure
		}{name, m})
	}
	m1, err := core.NewSTS(grid, sigma)
	add("personalized", m1, err)
	m2, err := core.NewSTSG(grid, sigma, pooled)
	add("global", m2, err)
	m3, err := core.NewSTSF(grid, sigma, freq, pooled.MaxSpeed())
	add("frequency", m3, err)
	m4, err := core.New(core.Options{
		Grid:     grid,
		Noise:    stprob.GaussianNoise{Sigma: sigma},
		Provider: core.FixedTransition{Trans: brownian, MaxSpeed: pooled.MaxSpeed()},
	})
	add("brownian", m4, err)

	for _, tc := range measures {
		b.Run(tc.name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				var err error
				v, err = tc.m.Similarity(mall.D1[0], mall.D2[0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(v, "twin-similarity")
		})
	}
}
