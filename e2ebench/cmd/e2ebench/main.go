// Command e2ebench drives a real stsserved through its HTTP boundary with
// closed-loop clients and prints one JSON result line (see README.md).
//
// Usage:
//
//	e2ebench -server bin/stsserved -traced bin/stsserved-traced \
//	    --workload topk_resident --seed 1 --seconds 10 --trace 0
//	e2ebench ... --workload all     # every workload, one report each
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. The exit status is
// non-zero when the benchmark could not run or an output check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"github.com/stslib/sts/e2ebench/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed (the server never sees it)")
		seconds  = flag.Int("seconds", 10, "minimum length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		server   = flag.String("server", "", "stsserved binary")
		tracedB  = flag.String("traced", "", "stsserved-traced binary")
		workDir  = flag.String("work", ".bench_build/runs", "parent directory of per-run scratch directories")
		commit   = flag.String("commit", "unknown", "commit under test, for the report")
	)
	flag.Parse()
	ws := bench.Workloads
	if *workload != "all" {
		w, ok := bench.Find(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		ws = []bench.Workload{w}
	}
	if *server == "" || *tracedB == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -server, -traced and a positive -seconds are required")
		os.Exit(2)
	}
	// The load generator shares the box's cores with the server; collecting
	// its small heap less often keeps its GC out of the measured latencies.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok := true
	for _, w := range ws {
		res, err := bench.Run(ctx, bench.Config{
			Workload:  w,
			Seed:      *seed,
			Seconds:   time.Duration(*seconds) * time.Second,
			Trace:     *traced == 1,
			ServerBin: *server,
			TracedBin: *tracedB,
			WorkDir:   *workDir,
			Commit:    *commit,
			Log:       os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if err := res.Print(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
