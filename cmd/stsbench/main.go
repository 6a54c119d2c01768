// Command stsbench regenerates the evaluation artifacts of the STS paper
// (ICDE 2021): every figure of Section VI, as formatted tables of the same
// series the paper plots.
//
// Usage:
//
//	stsbench -figure 4               # one figure, both datasets
//	stsbench -figure 4+5             # a shared sweep, both panels
//	stsbench -figure complexity      # the Section V-C cost-model check
//	stsbench -all                    # everything (tens of minutes)
//	stsbench -figure 8 -n 40         # bigger datasets
//	stsbench -figure 11 -format csv  # machine-readable output
//
// The -bench mode runs the perf-regression suite instead; it supports
// pprof capture and a regression gate for CI:
//
//	stsbench -bench                                       # report to .bench_build/stsbench.json
//	stsbench -bench -benchout BENCH.json                  # fresh baseline
//	stsbench -bench -baseline BENCH_3.json -gate 20       # fail on >20% slowdown
//	stsbench -bench -cpuprofile cpu.out -memprofile mem.out
//
// Dataset sizes default to a laptop-friendly 20 mall objects / 60 taxis;
// the paper's absolute numbers used far larger corpora (and hours of
// Python runtime), so expect the same shapes, not the same decimals.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/stslib/sts/internal/experiments"
	"github.com/stslib/sts/internal/version"
)

func main() {
	var (
		figure    = flag.String("figure", "", "figure to regenerate: 4..14, or 4+5, 6+7, 8+9, 12+13+14")
		all       = flag.Bool("all", false, "regenerate every figure")
		n         = flag.Int("n", 0, "mall objects (default 20; taxis default to 3x)")
		seed      = flag.Int64("seed", 0, "random seed (default 1)")
		workers   = flag.Int("workers", 0, "scoring goroutines (default GOMAXPROCS)")
		pairs     = flag.Int("pairs", 0, "pairs for the cross-similarity experiment (default 100)")
		format    = flag.String("format", "text", "output format: text or csv")
		bench     = flag.Bool("bench", false, "run the perf-regression suite instead of a figure")
		benchOut  = flag.String("benchout", ".bench_build/stsbench.json", "output path of the -bench JSON report; missing parent directories are created")
		baseline  = flag.String("baseline", "", "previous -bench report to compute speedups against")
		benchTime = flag.Duration("benchtime", time.Second, "minimum measured time per -bench benchmark")
		repeat    = flag.Int("repeat", 1, "measure each -bench benchmark this many times and report the median run (damps box noise for baseline gates)")
		profBkt   = flag.Float64("profile-bucket", 0, "bucket width in seconds of the -bench profile_* benches (0 = library default)")
		gate      = flag.Float64("gate", 0, "with -baseline: exit non-zero if any shared benchmark slowed by more than this percent")
		wAxis     = flag.String("workers-axis", "", "comma-separated worker counts of the -bench parallel-scaling rows (default 1,NumCPU/2,NumCPU)")
		shAxis    = flag.String("shards-axis", "", "comma-separated partition counts of the -bench sharded-scaling rows (default 1,2,4,8)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		showVer   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println("stsbench", version.String())
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg := experiments.Config{N: *n, Seed: *seed, Workers: *workers, Pairs: *pairs}
	start := time.Now()
	var err error
	switch {
	case *bench:
		axis, aerr := parseAxis("-workers-axis", *wAxis)
		if aerr != nil {
			fatal(aerr)
		}
		sAxis, aerr := parseAxis("-shards-axis", *shAxis)
		if aerr != nil {
			fatal(aerr)
		}
		if err := os.MkdirAll(filepath.Dir(*benchOut), 0o755); err != nil {
			fatal(err)
		}
		err = experiments.RunPerf(cfg, experiments.PerfOptions{
			MinTime:       *benchTime,
			Workers:       *workers,
			BaselinePath:  *baseline,
			ProfileBucket: *profBkt,
			GatePercent:   *gate,
			WorkersAxis:   axis,
			ShardsAxis:    sAxis,
			Repeat:        *repeat,
		}, *benchOut, os.Stdout)
	case *all:
		err = experiments.RunAll(cfg, os.Stdout)
	case *figure != "":
		err = experiments.RunFormat(*figure, cfg, os.Stdout, *format)
	default:
		fmt.Fprintln(os.Stderr, "stsbench: specify -figure <id>, -all or -bench")
		flag.Usage()
		os.Exit(2)
	}
	if *memProf != "" {
		f, merr := os.Create(*memProf)
		if merr != nil {
			fatal(merr)
		}
		runtime.GC() // settle live heap before the snapshot
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fatal(merr)
		}
		f.Close()
	}
	if err != nil {
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintf(os.Stderr, "stsbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("done in %.1fs\n", time.Since(start).Seconds())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stsbench: %v\n", err)
	os.Exit(1)
}

// parseAxis parses a comma-separated count list ("1,2,4"). Empty selects
// the library default.
func parseAxis(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var axis []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s: %q is not a positive count", name, part)
		}
		axis = append(axis, n)
	}
	return axis, nil
}
