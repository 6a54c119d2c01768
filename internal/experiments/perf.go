package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/datagen"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

// PerfOptions configures the benchmark-regression harness behind
// `stsbench -bench`.
type PerfOptions struct {
	// MinTime is the minimum measured time per benchmark (default 1s).
	MinTime time.Duration
	// Workers bounds scoring parallelism (default 1, so ns/op numbers are
	// comparable across machines with different core counts).
	Workers int
	// BaselinePath, when set, names a previously written report whose
	// numbers are merged into the output as the baseline, with speedups
	// computed per benchmark.
	BaselinePath string
	// ProfileBucket is the bucket width in seconds of the profile_*
	// benches (0 selects core.DefaultProfileBucketSeconds).
	ProfileBucket float64
	// GatePercent, with BaselinePath, turns the run into a regression
	// gate: RunPerf returns an error when any benchmark shared with the
	// baseline slowed down by more than this percent (ns/op ratio). Zero
	// disables the gate.
	GatePercent float64
	// WorkersAxis lists the extra worker counts the parallel-scaling rows
	// run at (matrix scoring, engine top-k, pruned top-k). Scaled rows are
	// named "<bench>/workers=<n>" so the canonical single-worker names stay
	// comparable across reports, and each carries its parallel efficiency
	// against the canonical row. Empty selects DefaultWorkersAxis.
	WorkersAxis []int
	// ShardsAxis lists the partition counts the sharded-scaling rows run at
	// (concurrent ingest and pruned top-k through the sharded coordinator,
	// named "<bench>/shards=<n>"). Empty selects DefaultShardsAxis.
	ShardsAxis []int
	// Repeat runs each benchmark this many times and reports the median
	// run by ns/op (lower median on even counts), damping the
	// single-run box noise that otherwise shows up as phantom
	// speedup_vs_baseline drift on unchanged code. Values below 1 mean a
	// single run; the report records the value so gates know what they
	// compared.
	Repeat int
}

// DefaultWorkersAxis is the worker-count axis of the parallel-scaling rows:
// 1, half the CPUs, and all CPUs, deduplicated. On a single-CPU machine the
// hardware axis collapses to {1}, so an oversubscription rung is added —
// it cannot show hardware speedup, but it still exercises the scheduling
// and contention paths (pool churn, cache single-flight, shared counters)
// the multi-worker posture is about.
func DefaultWorkersAxis() []int {
	ncpu := runtime.NumCPU()
	axis := []int{1}
	for _, n := range []int{ncpu / 2, ncpu} {
		if n > axis[len(axis)-1] {
			axis = append(axis, n)
		}
	}
	if len(axis) == 1 {
		axis = append(axis, 4)
	}
	return axis
}

// DefaultShardsAxis is the partition-count axis of the sharded-scaling
// rows: 1 (the single-engine baseline) through 8, doubling. It is fixed
// rather than CPU-derived because the effect sharding targets — removing
// the global write lock and the store coordinator from the mutation
// path — shows up as reduced contention even when the shards timeshare
// few cores; real parallel speedup additionally needs the cores.
func DefaultShardsAxis() []int { return []int{1, 2, 4, 8} }

// PerfBench is one benchmark row of the report.
type PerfBench struct {
	// Name identifies the benchmark ("matrix_scoring/mall/grid=3" …).
	Name string `json:"name"`
	// Iterations is the iteration count of the final measured run.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// PairsPerSec is the scored-pair throughput, for benchmarks whose op
	// covers a known number of trajectory pairs (0 otherwise).
	PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
	// CacheHitRate is the engine's prepared-cache hit rate over the whole
	// measured run, for benchmarks that serve queries through a persistent
	// engine (0 otherwise).
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// PruneRate is the fraction of candidate pairs the filter-and-refine
	// path disposed of without full refinement — (bound-pruned +
	// early-exited) / considered — for benchmarks that run the pruned path
	// (0 otherwise).
	PruneRate float64 `json:"prune_rate,omitempty"`
	// Workers is the worker count this row ran at.
	Workers int `json:"workers,omitempty"`
	// Shards is the partition count of the "/shards=<n>" sharded-scaling
	// rows (0 on rows that do not go through the engine layer's router).
	Shards int `json:"shards,omitempty"`
	// BytesPerTrajectory is the live encoded footprint per corpus record,
	// for the columnar-store benches (0 otherwise).
	BytesPerTrajectory float64 `json:"bytes_per_trajectory,omitempty"`
	// RecoverSeconds is the boot-time recovery duration (snapshot load +
	// WAL replay) of the final measured run, for corpus_recover (0
	// otherwise).
	RecoverSeconds float64 `json:"recover_seconds,omitempty"`
	// ParallelEfficiency is, for the scaled "/workers=<n>" rows, the
	// speedup over the same benchmark's canonical row divided by the ideal
	// speedup (n / canonical workers) — 1.0 is perfect scaling. Zero on
	// canonical rows.
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	// Baseline numbers and the derived speedup (ratio of baseline ns/op to
	// current ns/op), present only when PerfOptions.BaselinePath was given.
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselinePairsPerSec float64 `json:"baseline_pairs_per_sec,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup_vs_baseline,omitempty"`
}

// PerfReport is the machine-readable artifact (BENCH_<n>.json) committed by
// each perf-sensitive PR so later PRs have a trajectory to compare against.
type PerfReport struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	// WorkersAxis lists the worker counts the parallel-scaling rows ran at
	// (schema ≥ 2).
	WorkersAxis []int `json:"workers_axis,omitempty"`
	// ShardsAxis lists the partition counts the sharded-scaling rows ran at
	// (schema ≥ 3).
	ShardsAxis []int `json:"shards_axis,omitempty"`
	// Repeat is the median-of-N repetition count each row was measured at
	// (schema ≥ 4; absent means single-run).
	Repeat  int         `json:"repeat,omitempty"`
	N       int         `json:"n"`
	Seed    int64       `json:"seed"`
	Benches []PerfBench `json:"benches"`
}

// measureLoop runs op repeatedly, testing-style: iteration counts grow until
// one measured run lasts at least minTime. The final run reports ns, allocs
// and bytes per op. Allocation counters are process-global, so benchmarks
// must not run concurrently with other work.
func measureLoop(minTime time.Duration, op func() error) (PerfBench, error) {
	var out PerfBench
	if err := op(); err != nil { // warm caches, trigger lazy init
		return out, err
	}
	n := 1
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return out, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= minTime || n >= 1e8 {
			fn := float64(n)
			out.Iterations = n
			out.NsPerOp = float64(elapsed.Nanoseconds()) / fn
			out.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / fn
			out.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / fn
			return out, nil
		}
		// Grow like the testing package: predict from the last run, with
		// 20% headroom, at least +1, at most 100x.
		next := int(1.2 * float64(n) * float64(minTime) / (float64(elapsed) + 1))
		if next > 100*n {
			next = 100 * n
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

// measureMedian measures op `repeat` independent times and returns the
// median run by ns/op (the lower median on even counts), whole — its
// iteration count and alloc numbers come from the same run, so the row is
// internally consistent. One run degenerates to measureLoop.
func measureMedian(minTime time.Duration, repeat int, op func() error) (PerfBench, error) {
	runs := make([]PerfBench, 0, repeat)
	for r := 0; r < repeat; r++ {
		b, err := measureLoop(minTime, op)
		if err != nil {
			return PerfBench{}, err
		}
		runs = append(runs, b)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	return runs[(len(runs)-1)/2], nil
}

// RunPerf runs the benchmark suite and writes the JSON report to outPath,
// echoing a human-readable summary to w.
func RunPerf(cfg Config, opts PerfOptions, outPath string, w io.Writer) error {
	if opts.MinTime <= 0 {
		opts.MinTime = time.Second
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	axis := opts.WorkersAxis
	if len(axis) == 0 {
		axis = DefaultWorkersAxis()
	}
	shardsAxis := opts.ShardsAxis
	if len(shardsAxis) == 0 {
		shardsAxis = DefaultShardsAxis()
	}
	n := cfg.N
	if n <= 0 {
		n = 8
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	// Load the baseline before the (minutes-long) run so a bad path fails
	// fast instead of after the work is done.
	var base *PerfReport
	if opts.BaselinePath != "" {
		b, err := loadBaseline(opts.BaselinePath)
		if err != nil {
			return err
		}
		base = b
	}
	repeat := opts.Repeat
	if repeat < 1 {
		repeat = 1
	}
	report := PerfReport{
		Schema:      4,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		WorkersAxis: axis,
		ShardsAxis:  shardsAxis,
		Repeat:      repeat,
		N:           n,
		Seed:        seed,
	}
	scenarios := []Scenario{Mall(n, seed), Taxi(3*n, seed)}

	add := func(name string, pairs int, op func() error) error {
		fmt.Fprintf(w, "%-42s", name)
		b, err := measureMedian(opts.MinTime, repeat, op)
		if err != nil {
			fmt.Fprintln(w, "ERROR")
			return fmt.Errorf("experiments: bench %s: %w", name, err)
		}
		b.Name = name
		b.Workers = workers
		if pairs > 0 {
			b.PairsPerSec = float64(pairs) * 1e9 / b.NsPerOp
		}
		fmt.Fprintf(w, "%12.0f ns/op %10.1f allocs/op", b.NsPerOp, b.AllocsPerOp)
		if pairs > 0 {
			fmt.Fprintf(w, " %10.1f pairs/s", b.PairsPerSec)
		}
		fmt.Fprintln(w)
		report.Benches = append(report.Benches, b)
		return nil
	}

	// addScaled appends one "/workers=<n>" row per axis rung beyond the
	// canonical worker count, computing each rung's parallel efficiency
	// against the canonical row just added (which must be last in Benches).
	// mk builds the op for one worker count — a fresh engine per rung where
	// the worker pool is bound at construction.
	addScaled := func(name string, pairs int, mk func(nw int) (func() error, error)) error {
		base := report.Benches[len(report.Benches)-1]
		for _, nw := range axis {
			if nw == workers {
				continue
			}
			op, err := mk(nw)
			if err != nil {
				return err
			}
			if err := add(fmt.Sprintf("%s/workers=%d", name, nw), pairs, op); err != nil {
				return err
			}
			row := &report.Benches[len(report.Benches)-1]
			row.Workers = nw
			if base.NsPerOp > 0 && row.NsPerOp > 0 {
				row.ParallelEfficiency = (base.NsPerOp / row.NsPerOp) / (float64(nw) / float64(workers))
			}
		}
		return nil
	}

	profOpts := core.ProfileOptions{BucketSeconds: opts.ProfileBucket}

	// Matrix scoring at two grid scales per scenario: the default cell size
	// and a 2x finer grid (more cells per noise support, the regime the
	// offset memoization targets).
	for _, sc := range scenarios {
		for _, scale := range []float64{1, 0.5} {
			gridSize := sc.GridSize * scale
			scorers, err := BuildScorers(sc, gridSize, 0, []string{MethodSTS})
			if err != nil {
				return err
			}
			ms := scorers[0].(*eval.STSScorer)
			pairs := len(sc.D1) * len(sc.D2)
			name := fmt.Sprintf("matrix_scoring/%s/grid=%g", sc.Name, gridSize)
			if err := add(name, pairs, func() error {
				_, err := engine.ScoreMatrix(context.Background(), ms, sc.D1, sc.D2, nil, math.Inf(-1), workers)
				return err
			}); err != nil {
				return err
			}
			if scale == 1 {
				err := addScaled(name, pairs, func(nw int) (func() error, error) {
					return func() error {
						_, err := engine.ScoreMatrix(context.Background(), ms, sc.D1, sc.D2, nil, math.Inf(-1), nw)
						return err
					}, nil
				})
				if err != nil {
					return err
				}
			}
		}
	}

	// Profiled matrix scoring: the same workload as matrix_scoring at the
	// default grid, through bucketed S-T profiles — each op rebuilds every
	// profile (one interpolation pass per trajectory) and then scores all
	// pairs as sparse dot-product merges, so the headline speedup already
	// pays the full build cost.
	for _, sc := range scenarios {
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		ps := eval.NewSTSScorerProfiled("STS-P", scorers[0].(*eval.STSScorer).Measure(), profOpts)
		pairs := len(sc.D1) * len(sc.D2)
		name := fmt.Sprintf("profile_matrix/%s/grid=%g", sc.Name, sc.GridSize)
		if err := add(name, pairs, func() error {
			_, err := engine.ScoreMatrix(context.Background(), ps, sc.D1, sc.D2, nil, math.Inf(-1), workers)
			return err
		}); err != nil {
			return err
		}
	}

	// Steady-state single-pair scoring with cached preparation: the
	// allocs/op headline of the zero-allocation workspace design.
	{
		sc := scenarios[0]
		grid, err := sc.Grid(sc.GridSize, 0)
		if err != nil {
			return err
		}
		m, err := core.NewSTS(grid, sc.Sigma(0))
		if err != nil {
			return err
		}
		pa, err := m.Prepare(sc.D1[0])
		if err != nil {
			return err
		}
		pb, err := m.Prepare(sc.D2[1])
		if err != nil {
			return err
		}
		if err := add("similarity_prepared/mall", 1, func() error {
			_, err := m.SimilarityPrepared(pa, pb)
			return err
		}); err != nil {
			return err
		}
	}

	// Greedy linking with the FTL feasibility pre-filter engaged.
	{
		sc := scenarios[1]
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		pooled, err := kde.NewPooledSpeedModel(sc.Base)
		if err != nil {
			return err
		}
		lopts := linking.Options{MinScore: 1e-9, MaxSpeed: pooled.MaxSpeed(), Workers: workers}
		pairs := len(sc.D1) * len(sc.D2)
		if err := add("linking_greedy/taxi", pairs, func() error {
			_, err := linking.GreedyLink(sc.D1, sc.D2, scorers[0], lopts)
			return err
		}); err != nil {
			return err
		}
	}

	// Top-k served by a persistent engine: the LRU cache reuses each
	// trajectory's preparation across queries — the steady-state serving
	// path the engine layer exists for.
	{
		sc := scenarios[1]
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		// DisablePruning keeps this row the exhaustive serving baseline it has
		// been since it was introduced; the filter-and-refine regime has its
		// own pruned_topk row below.
		mkEng := func(nw int) (*engine.Engine, error) {
			eng, err := engine.New(scorers[0], engine.Options{Workers: nw, DisablePruning: true})
			if err != nil {
				return nil, err
			}
			for _, tr := range sc.D2 {
				if _, err := eng.Add(tr); err != nil {
					return nil, err
				}
			}
			return eng, nil
		}
		eng, err := mkEng(workers)
		if err != nil {
			return err
		}
		qi := 0
		if err := add("engine_topk/taxi", len(sc.D2), func() error {
			q := sc.D1[qi%len(sc.D1)]
			qi++
			_, err := eng.TopK(context.Background(), q, 5)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = eng.CacheStats().HitRate()
		err = addScaled("engine_topk/taxi", len(sc.D2), func(nw int) (func() error, error) {
			e, err := mkEng(nw)
			if err != nil {
				return nil, err
			}
			qj := 0
			return func() error {
				q := sc.D1[qj%len(sc.D1)]
				qj++
				_, err := e.TopK(context.Background(), q, 5)
				return err
			}, nil
		})
		if err != nil {
			return err
		}
	}

	// Top-k served by a persistent *profiled* engine: same corpus and query
	// mix as engine_topk, but pair scoring runs over cached bucketed
	// profiles — the steady-state regime where the per-trajectory STP work
	// is fully amortized and each query pays only sparse dot products.
	{
		sc := scenarios[1]
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		eng, err := engine.New(scorers[0], engine.Options{Workers: workers, Profile: &profOpts, DisablePruning: true})
		if err != nil {
			return err
		}
		for _, tr := range sc.D2 {
			if _, err := eng.Add(tr); err != nil {
				return err
			}
		}
		qi := 0
		if err := add("profile_topk/taxi", len(sc.D2), func() error {
			q := sc.D1[qi%len(sc.D1)]
			qi++
			_, err := eng.TopK(context.Background(), q, 5)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = eng.ProfileCacheStats().HitRate()
	}

	// Filter-and-refine top-k: the same serving path as engine_topk but at
	// k=10 over a larger corpus (the corpus >> k regime pruning targets),
	// measured exhaustive and pruned over identical engines. The pruned
	// engine bound-orders candidates by their admissible upper bound and
	// refines only those that can still beat the running k-th-best score;
	// both rows return identical result sets.
	{
		sc := Taxi(8*n, seed)
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		newEng := func(disable bool, nw int) (*engine.Engine, error) {
			eng, err := engine.New(scorers[0], engine.Options{Workers: nw, DisablePruning: disable})
			if err != nil {
				return nil, err
			}
			for _, tr := range sc.D2 {
				if _, err := eng.Add(tr); err != nil {
					return nil, err
				}
			}
			return eng, nil
		}
		exh, err := newEng(true, workers)
		if err != nil {
			return err
		}
		qi := 0
		if err := add("exhaustive_topk/taxi/k=10", len(sc.D2), func() error {
			q := sc.D1[qi%len(sc.D1)]
			qi++
			_, err := exh.TopK(context.Background(), q, 10)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = exh.CacheStats().HitRate()

		prn, err := newEng(false, workers)
		if err != nil {
			return err
		}
		qj := 0
		if err := add("pruned_topk/taxi/k=10", len(sc.D2), func() error {
			q := sc.D1[qj%len(sc.D1)]
			qj++
			_, err := prn.TopK(context.Background(), q, 10)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = prn.CacheStats().HitRate()
		report.Benches[len(report.Benches)-1].PruneRate = pruneRate(prn.PruneStats())
		err = addScaled("pruned_topk/taxi/k=10", len(sc.D2), func(nw int) (func() error, error) {
			e, err := newEng(false, nw)
			if err != nil {
				return nil, err
			}
			qk := 0
			return func() error {
				q := sc.D1[qk%len(sc.D1)]
				qk++
				_, err := e.TopK(context.Background(), q, 10)
				return err
			}, nil
		})
		if err != nil {
			return err
		}

		// Sharded pruned top-k: the same corpus and query mix scattered
		// across engine shards, so the "/shards=<n>" family traces how
		// scatter-gather with MinScore-floor forwarding scales with
		// partition count (shards=1 restates the single engine so the curve
		// is self-contained). Results are bit-identical across the axis;
		// only the partitioning varies.
		newSvc := func(nsh int) (engine.Service, error) {
			if nsh == 1 {
				return newEng(false, workers)
			}
			svc, err := engine.NewSharded(scorers[0], engine.ShardedOptions{
				Shards:  nsh,
				Workers: workers,
				ShardOptions: func(int) (engine.Options, error) {
					return engine.Options{Workers: engine.SplitWorkers(workers, engine.DefaultFanOut)}, nil
				},
			})
			if err != nil {
				return nil, err
			}
			for _, tr := range sc.D2 {
				if _, err := svc.Add(tr); err != nil {
					return nil, err
				}
			}
			return svc, nil
		}
		for _, nsh := range shardsAxis {
			svc, err := newSvc(nsh)
			if err != nil {
				return err
			}
			qs := 0
			if err := add(fmt.Sprintf("pruned_topk/taxi/k=10/shards=%d", nsh), len(sc.D2), func() error {
				q := sc.D1[qs%len(sc.D1)]
				qs++
				_, err := svc.TopK(context.Background(), q, 10)
				return err
			}); err != nil {
				return err
			}
			row := &report.Benches[len(report.Benches)-1]
			row.Shards = nsh
			row.CacheHitRate = svc.CacheStats().HitRate()
			row.PruneRate = pruneRate(svc.PruneStats())
		}
	}

	// Repeated batch rescoring through a persistent engine: after the first
	// batch every preparation is a cache hit, so this isolates the pure
	// scoring cost a long-lived server pays per request.
	{
		sc := scenarios[0]
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		eng, err := engine.New(scorers[0], engine.Options{Workers: workers})
		if err != nil {
			return err
		}
		pairs := len(sc.D1) * len(sc.D2)
		if err := add("engine_rescore/mall", pairs, func() error {
			_, err := eng.ScoreBatch(context.Background(), sc.D1, sc.D2, nil)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = eng.CacheStats().HitRate()
	}

	// Thresholded matrix scoring: the engine_rescore workload with a score
	// floor, through ScoreBatchMin — each pair is bound-checked first and
	// refinement early-exits as soon as the exact score provably cannot
	// reach the floor, so sub-threshold pairs come back as -Inf without
	// full scoring.
	{
		sc := scenarios[0]
		scorers, err := BuildScorers(sc, sc.GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		eng, err := engine.New(scorers[0], engine.Options{Workers: workers})
		if err != nil {
			return err
		}
		// The 0.01 floor sits at ~P90 of the mall score distribution, so the
		// strong pairs refine to completion and the bulk prunes or exits.
		pairs := len(sc.D1) * len(sc.D2)
		if err := add("threshold_matrix/mall/min=0.01", pairs, func() error {
			_, err := eng.ScoreBatchMin(context.Background(), sc.D1, sc.D2, nil, 0.01)
			return err
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].CacheHitRate = eng.CacheStats().HitRate()
		report.Benches[len(report.Benches)-1].PruneRate = pruneRate(eng.PruneStats())
	}

	// Concurrent ingest through the engine layer across the shards axis:
	// 8 writer goroutines push a synthetic corpus into a fresh in-memory
	// service per op. At shards=1 every Add serializes on the engine's
	// write mutex and the store coordinator; with more shards writes to
	// different partitions never share a lock, so the family measures how
	// much of the mutation path the partitioned router takes off the
	// contended spine (hardware parallelism additionally needs the cores).
	{
		const (
			nTraj   = 2000
			writers = 8
		)
		cfg := datagen.DefaultSynthConfig(nTraj)
		trs := make([]model.Trajectory, nTraj)
		for i := range trs {
			trs[i] = datagen.SynthTrajectory(cfg, i)
		}
		scorers, err := BuildScorers(scenarios[0], scenarios[0].GridSize, 0, []string{MethodSTS})
		if err != nil {
			return err
		}
		newSvc := func(nsh int) (engine.Service, error) {
			if nsh == 1 {
				return engine.New(scorers[0], engine.Options{})
			}
			return engine.NewSharded(scorers[0], engine.ShardedOptions{
				Shards:       nsh,
				ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
			})
		}
		for _, nsh := range shardsAxis {
			if err := add(fmt.Sprintf("sharded_ingest/synth/shards=%d", nsh), 0, func() error {
				svc, err := newSvc(nsh)
				if err != nil {
					return err
				}
				if err := engine.ForEach(context.Background(), writers, writers, func(wi int) error {
					for i := wi; i < nTraj; i += writers {
						if _, err := svc.Add(trs[i]); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
				if svc.Len() != nTraj {
					return fmt.Errorf("sharded ingest: %d records, want %d", svc.Len(), nTraj)
				}
				return svc.Close()
			}); err != nil {
				return err
			}
			report.Benches[len(report.Benches)-1].Shards = nsh
		}
	}

	// Columnar corpus ingest and recovery: the durability path end to end.
	// corpus_ingest encodes a synthetic workload into a fresh durable store
	// (arena encode + WAL append per trajectory) and reports the live
	// encoded footprint per record; corpus_recover reopens a directory that
	// holds the same corpus and reports how long the snapshot load + WAL
	// replay took. Fsync batching is disabled so the rows measure the
	// store, not the disk's flush latency.
	{
		const nTraj = 2000
		cfg := datagen.DefaultSynthConfig(nTraj)
		trs := make([]model.Trajectory, nTraj)
		for i := range trs {
			trs[i] = datagen.SynthTrajectory(cfg, i)
		}
		stOpts := store.Options{
			CoordStep:     store.StepForSigma(50),
			FsyncInterval: -1,
			SnapshotEvery: -1,
		}
		root, err := os.MkdirTemp("", "stsbench-store-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)

		var liveBytes int64
		sub := 0
		if err := add(fmt.Sprintf("corpus_ingest/synth/n=%d", nTraj), 0, func() error {
			dir := fmt.Sprintf("%s/ingest-%d", root, sub)
			sub++
			st, err := store.Open(dir, stOpts)
			if err != nil {
				return err
			}
			for _, tr := range trs {
				if _, err := st.Add(tr); err != nil {
					return err
				}
			}
			liveBytes = st.Stats().LiveBytes
			if err := st.Close(); err != nil {
				return err
			}
			return os.RemoveAll(dir)
		}); err != nil {
			return err
		}
		report.Benches[len(report.Benches)-1].BytesPerTrajectory = float64(liveBytes) / nTraj

		recDir := root + "/recover"
		st, err := store.Open(recDir, stOpts)
		if err != nil {
			return err
		}
		for _, tr := range trs {
			if _, err := st.Add(tr); err != nil {
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		var rec store.RecoveryInfo
		if err := add(fmt.Sprintf("corpus_recover/synth/n=%d", nTraj), 0, func() error {
			st, err := store.Open(recDir, stOpts)
			if err != nil {
				return err
			}
			if st.Len() != nTraj {
				st.Close()
				return fmt.Errorf("recovered %d records, want %d", st.Len(), nTraj)
			}
			rec, _ = st.Recovery()
			return st.Close()
		}); err != nil {
			return err
		}
		row := &report.Benches[len(report.Benches)-1]
		row.RecoverSeconds = rec.Duration.Seconds()
		row.BytesPerTrajectory = float64(liveBytes) / nTraj
	}

	// Streaming ingestion and standing-query evaluation: the two hot paths
	// of the live-subscription subsystem. append_ingest measures
	// Engine.Append alone — tail validation, columnar re-encode, WAL frame,
	// and the generation-scoped refresh of cached derived state — on a
	// resident synth corpus. standing_eval adds the subscription work: each
	// append re-evaluates one watchlist through the ScoreBatchMin floor, so
	// the row's prune rate reports how much of the candidate set the
	// admissible upper bound disposes of before refinement. The corpus pairs
	// every original with a mirrored twin and watches the first mirrors:
	// each evaluation scores one genuinely co-located pair (refines, alerts)
	// against a majority of temporally disjoint ones (pruned), the
	// steady-state shape of a live watchlist.
	{
		const (
			nTraj  = 256
			batch  = 5
			nWatch = 8
			theta  = 0.05
		)
		cfg := datagen.DefaultSynthConfig(nTraj)
		originals := make([]model.Trajectory, nTraj)
		var bounds geo.Rect
		for i := range originals {
			originals[i] = datagen.SynthTrajectory(cfg, i)
			b := originals[i].Bounds()
			if i == 0 {
				bounds = b
			} else {
				bounds = bounds.Union(b)
			}
		}
		const (
			gridSize = 50.0
			sigma    = 25.0
		)
		grid, err := geo.NewGrid(bounds.Expand(4*sigma+gridSize), gridSize)
		if err != nil {
			return err
		}
		m, err := core.NewSTS(grid, sigma)
		if err != nil {
			return err
		}
		newCorpus := func(mirrors bool) (*engine.Engine, []float64, error) {
			eng, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{Workers: workers})
			if err != nil {
				return nil, nil, err
			}
			lastT := make([]float64, nTraj)
			for i, tr := range originals {
				if _, err := eng.Add(tr); err != nil {
					return nil, nil, err
				}
				lastT[i] = tr.Samples[len(tr.Samples)-1].T
				if mirrors {
					mt := model.Trajectory{ID: tr.ID + "~b", Samples: tr.Samples}
					if _, err := eng.Add(mt); err != nil {
						return nil, nil, err
					}
				}
			}
			return eng, lastT, nil
		}
		// nextTail extends trajectory k past its high-water mark: the object
		// holds position and keeps reporting, the cheapest valid continuation,
		// so the row isolates the append machinery rather than the generator.
		nextTail := func(lastT []float64, k int) []model.Sample {
			tail := make([]model.Sample, batch)
			t := lastT[k]
			loc := originals[k].Samples[len(originals[k].Samples)-1].Loc
			for j := range tail {
				t += cfg.ReportPeriod
				tail[j] = model.Sample{T: t, Loc: loc}
			}
			lastT[k] = t
			return tail
		}

		eng, lastT, err := newCorpus(false)
		if err != nil {
			return err
		}
		ai := 0
		if err := add(fmt.Sprintf("append_ingest/synth/batch=%d", batch), 0, func() error {
			k := ai % nTraj
			ai++
			_, err := eng.Append(originals[k].ID, nextTail(lastT, k))
			return err
		}); err != nil {
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}

		eng, lastT, err = newCorpus(true)
		if err != nil {
			return err
		}
		members := make([]string, nWatch)
		for i := range members {
			members[i] = originals[i].ID + "~b"
		}
		reg, err := stream.NewRegistry(eng, stream.Options{})
		if err != nil {
			return err
		}
		if err := reg.Set(stream.Watch{Name: "bench", Members: members, Theta: theta}); err != nil {
			return err
		}
		si := 0
		if err := add(fmt.Sprintf("standing_eval/synth/watch=%d", nWatch), nWatch, func() error {
			k := si % nTraj
			si++
			id := originals[k].ID
			if _, err := eng.Append(id, nextTail(lastT, k)); err != nil {
				return err
			}
			grown, ok := eng.Get(id)
			if !ok {
				return fmt.Errorf("appended %q not resident", id)
			}
			_, err := reg.OnAppend(context.Background(), grown, batch)
			return err
		}); err != nil {
			return err
		}
		row := &report.Benches[len(report.Benches)-1]
		row.PruneRate = pruneRate(eng.PruneStats())
		row.CacheHitRate = eng.CacheStats().HitRate()
		reg.Close()
		if err := eng.Close(); err != nil {
			return err
		}

		// Standing evaluation under retention: the same append + watchlist
		// op with a sliding-window TrimBefore after every event, the shape
		// of a live deployment that keeps only the last few minutes
		// resident. Start times are aligned to t=0 (the synth generator
		// staggers them over an hour) so the window engages within a couple
		// of append rounds; every member keeps reporting round-robin, so
		// nothing the watch needs ever fully expires, and the cache hit
		// rate pins that sweeps no longer flush derived state: straddling
		// trajectories keep their (incrementally trimmed) preparations.
		const horizon = 600.0
		eng, err = engine.New(eval.NewSTSScorer("STS", m), engine.Options{Workers: workers})
		if err != nil {
			return err
		}
		lastT = make([]float64, nTraj)
		for i, tr := range originals {
			s := make([]model.Sample, len(tr.Samples))
			t0 := tr.Samples[0].T
			for j, sm := range tr.Samples {
				sm.T -= t0
				s[j] = sm
			}
			if _, err := eng.Add(model.Trajectory{ID: tr.ID, Samples: s}); err != nil {
				return err
			}
			lastT[i] = s[len(s)-1].T
		}
		reg, err = stream.NewRegistry(eng, stream.Options{})
		if err != nil {
			return err
		}
		retMembers := make([]string, nWatch)
		for i := range retMembers {
			retMembers[i] = originals[i].ID
		}
		if err := reg.Set(stream.Watch{Name: "bench", Members: retMembers, Theta: theta}); err != nil {
			return err
		}
		ri := 0
		var highT float64
		for _, t := range lastT {
			if t > highT {
				highT = t
			}
		}
		if err := add(fmt.Sprintf("standing_eval/synth/watch=%d/retention", nWatch), nWatch, func() error {
			k := ri % nTraj
			ri++
			id := originals[k].ID
			if _, err := eng.Append(id, nextTail(lastT, k)); err != nil {
				return err
			}
			if lastT[k] > highT {
				highT = lastT[k]
			}
			grown, ok := eng.Get(id)
			if !ok {
				return fmt.Errorf("appended %q not resident", id)
			}
			if _, err := reg.OnAppend(context.Background(), grown, batch); err != nil {
				return err
			}
			_, err := eng.TrimBefore(highT - horizon)
			return err
		}); err != nil {
			return err
		}
		row = &report.Benches[len(report.Benches)-1]
		row.PruneRate = pruneRate(eng.PruneStats())
		row.CacheHitRate = eng.CacheStats().HitRate()
		reg.Close()
		if err := eng.Close(); err != nil {
			return err
		}
	}

	// Retention sweeps and warm restarts: the derived-state lifecycle rows.
	// trim_sweep/noexpire is the standing cost every retention tick pays
	// when nothing has expired — after the per-slot min-timestamp rewrite
	// the sweep inspects slots without decoding a single trajectory, so its
	// ns/op no longer scales with corpus decode cost. recover_cold vs
	// recover_warm measure time-to-first-scored-query over the same durable
	// profiled corpus, reopened with the profile sidecar ignored vs loaded;
	// the warm row's speedup over cold is the restart headline.
	{
		const nTraj = 2000
		cfg := datagen.DefaultSynthConfig(nTraj)
		trs := make([]model.Trajectory, nTraj)
		var bounds geo.Rect
		for i := range trs {
			trs[i] = datagen.SynthTrajectory(cfg, i)
			if i == 0 {
				bounds = trs[i].Bounds()
			} else {
				bounds = bounds.Union(trs[i].Bounds())
			}
		}
		const (
			gridSize = 50.0
			sigma    = 25.0
		)
		grid, err := geo.NewGrid(bounds.Expand(4*sigma+gridSize), gridSize)
		if err != nil {
			return err
		}
		m, err := core.NewSTS(grid, sigma)
		if err != nil {
			return err
		}

		sweepEng, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{Workers: workers})
		if err != nil {
			return err
		}
		for _, tr := range trs {
			if _, err := sweepEng.Add(tr); err != nil {
				return err
			}
		}
		if err := add(fmt.Sprintf("trim_sweep/synth/n=%d/noexpire", nTraj), 0, func() error {
			st, err := sweepEng.TrimBefore(-1)
			if err != nil {
				return err
			}
			if st.Decoded != 0 {
				return fmt.Errorf("no-expiry sweep decoded %d trajectories", st.Decoded)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := sweepEng.Close(); err != nil {
			return err
		}

		stOpts := store.Options{
			CoordStep:     store.StepForSigma(sigma),
			FsyncInterval: -1,
			SnapshotEvery: -1,
			// Recovery chatter would interleave with the bench table.
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}
		root, err := os.MkdirTemp("", "stsbench-warm-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
		dir := root + "/corpus"
		st, err := store.Open(dir, stOpts)
		if err != nil {
			return err
		}
		pOpts := profOpts
		eng, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{Workers: workers, Corpus: st, Profile: &pOpts})
		if err != nil {
			return err
		}
		for _, tr := range trs {
			if _, err := eng.Add(tr); err != nil {
				return err
			}
		}
		query := trs[0]
		// One query builds every candidate profile; the snapshot then
		// persists them into the sidecar next to the corpus snapshot.
		if _, err := eng.TopK(context.Background(), query, 5); err != nil {
			return err
		}
		if err := st.Snapshot(); err != nil {
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}

		reopen := func(cold bool) (float64, error) {
			o := stOpts
			o.DisableSidecar = cold
			st, err := store.Open(dir, o)
			if err != nil {
				return 0, err
			}
			p := profOpts
			e, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{Workers: workers, Corpus: st, Profile: &p})
			if err != nil {
				st.Close()
				return 0, err
			}
			if !cold && e.WarmLoaded() == 0 {
				e.Close()
				return 0, fmt.Errorf("warm reopen loaded no profiles")
			}
			if _, err := e.TopK(context.Background(), query, 5); err != nil {
				e.Close()
				return 0, err
			}
			rec, _ := e.Recovery()
			return rec.Duration.Seconds(), e.Close()
		}
		for _, mode := range []struct {
			name string
			cold bool
		}{{"recover_cold", true}, {"recover_warm", false}} {
			var recSec float64
			if err := add(fmt.Sprintf("%s/synth/n=%d", mode.name, nTraj), 0, func() error {
				s, err := reopen(mode.cold)
				recSec = s
				return err
			}); err != nil {
				return err
			}
			report.Benches[len(report.Benches)-1].RecoverSeconds = recSec
		}
	}

	if base != nil {
		mergeBaseline(&report, base)
		for _, b := range report.Benches {
			if b.Speedup > 0 {
				fmt.Fprintf(w, "%-42s speedup %.2fx\n", b.Name, b.Speedup)
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)

	if base != nil && opts.GatePercent > 0 {
		// A slowdown of G percent means ns/op grew to (1+G/100)× the
		// baseline, i.e. speedup below 1/(1+G/100).
		floor := 1 / (1 + opts.GatePercent/100)
		var bad []string
		for _, b := range report.Benches {
			if b.Speedup > 0 && b.Speedup < floor {
				bad = append(bad, fmt.Sprintf("%s %.0f%% slower (%.0f → %.0f ns/op)",
					b.Name, 100*(b.NsPerOp/b.BaselineNsPerOp-1), b.BaselineNsPerOp, b.NsPerOp))
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("experiments: bench regression gate (>%g%% slowdown): %s",
				opts.GatePercent, strings.Join(bad, "; "))
		}
		fmt.Fprintf(w, "gate ok: no benchmark slowed more than %g%%\n", opts.GatePercent)
	}
	return nil
}

// pruneRate derives the fraction of considered pairs disposed of without
// full refinement from an engine's cumulative filter-and-refine counters.
func pruneRate(s engine.PruneStats) float64 {
	if s.Considered == 0 {
		return 0
	}
	return float64(s.BoundPruned+s.EarlyExited) / float64(s.Considered)
}

// loadBaseline reads and parses a previously written report.
func loadBaseline(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline: %w", err)
	}
	var base PerfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("experiments: baseline %s: %w", path, err)
	}
	return &base, nil
}

// mergeBaseline copies the matching benchmark numbers of a previous report
// into report and derives per-benchmark speedups.
func mergeBaseline(report *PerfReport, base *PerfReport) {
	byName := make(map[string]PerfBench, len(base.Benches))
	for _, b := range base.Benches {
		byName[b.Name] = b
	}
	for i := range report.Benches {
		b, ok := byName[report.Benches[i].Name]
		if !ok {
			continue
		}
		report.Benches[i].BaselineNsPerOp = b.NsPerOp
		report.Benches[i].BaselinePairsPerSec = b.PairsPerSec
		report.Benches[i].BaselineAllocsPerOp = b.AllocsPerOp
		if report.Benches[i].NsPerOp > 0 {
			report.Benches[i].Speedup = b.NsPerOp / report.Benches[i].NsPerOp
		}
	}
}
