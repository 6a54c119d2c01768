// Command stsserved-traced is cmd/stsserved with spans around its layer
// boundaries, for the benchmark's traced run. It builds the same stores,
// scorer, engine, standing-query registry and server from the same
// packages and flags, then wraps three boundaries from the outside:
//
//   - each shard's store.Corpus (spans "store.<Method>");
//   - the engine.Service: the server's view gets spans "engine.<Method>",
//     and the stream registry is built over a second view whose spans end
//     in "@stream", so standing evaluations are attributed to the stream;
//   - the server's http.Handler (one root span per request, carrying the
//     client's X-Request-Id).
//
// It takes the flags the benchmark passes to stsserved; everything else
// stays at stsserved's defaults (the packages' zero-value options). On
// SIGINT/SIGTERM it drains like stsserved and then writes every span
// summary to -trace-out.
//
// Usage:
//
//	stsserved-traced -addr 127.0.0.1:18080 -data-dir d -dataset c.csv -grid 100 -sigma 10 -trace-out trace.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/stslib/sts/e2ebench/serving"
	"github.com/stslib/sts/e2ebench/trace"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/server"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

const (
	// maxSpans bounds the raw spans kept for the trace file; per-request
	// and per-name summaries are always complete.
	maxSpans = 200000
	// drain is stsserved's default graceful-shutdown budget.
	drain = 10 * time.Second
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		dataPath = flag.String("dataset", "", "CSV dataset to preload into the corpus")
		dataDir  = flag.String("data-dir", "", "durable data directory; empty serves an in-memory corpus")
		gridSz   = flag.Float64("grid", 0, "grid cell size in meters")
		sigma    = flag.Float64("sigma", 0, "location noise sigma in meters")
		cacheSz  = flag.Int("cache", 0, "as stsserved -cache")
		traceOut = flag.String("trace-out", "trace.json", "file the span summaries are written to at exit")
	)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(log)
	tr := trace.New(maxSpans)

	readOpts := dataset.ReadOptions{}
	stOpts := store.Options{Logger: log}
	nShards := serving.Shards()
	corpora := make([]store.Corpus, nShards)
	for i := range corpora {
		var st *store.Store
		if *dataDir != "" {
			dir := *dataDir
			if nShards > 1 {
				dir = store.ShardDir(*dataDir, i)
			}
			var err error
			st, err = store.Open(dir, stOpts)
			check(err)
		} else {
			st = store.New(stOpts)
		}
		corpora[i] = trace.WrapCorpus(tr, st)
	}

	var (
		bounds     geo.Rect
		haveBounds bool
	)
	union := func(b geo.Rect) {
		if !haveBounds {
			bounds, haveBounds = b, true
		} else {
			bounds = bounds.Union(b)
		}
	}
	// The benchmark always starts from a fresh data directory, so the scales
	// come from the -dataset bounds pass, as in stsserved.
	if *dataPath != "" {
		check(dataset.StreamFile(*dataPath, readOpts, func(t model.Trajectory) error {
			union(t.Bounds())
			return nil
		}))
	}

	scorer, _, err := serving.BuildScorer(bounds, haveBounds, *gridSz, *sigma, 0)
	check(err)
	inner, err := serving.NewEngine(scorer, corpora, *cacheSz)
	check(err)
	eng := trace.WrapService(tr, inner, "")

	if *dataPath != "" {
		n := 0
		check(ingest(eng, nShards, *dataPath, readOpts, &n))
		log.Info("dataset ingested", "path", *dataPath, "trajectories", n, "shards", nShards)
	}

	watches, err := stream.NewRegistry(trace.WrapService(tr, inner, "@stream"), stream.Options{Dir: *dataDir})
	check(err)
	srv, err := server.New(eng, server.Options{Logger: log, Watches: watches})
	check(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           trace.WrapHandler(tr, srv, func() *trace.EngineState { return trace.Snapshot(inner) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "traced", true)
	select {
	case err := <-errc:
		check(err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("drain", "err", err)
	}
	check(tr.WriteFile(*traceOut))
	watches.Close()
	check(eng.Close())
}

// ingest mirrors stsserved's -dataset preload: inline for one shard, one
// writer goroutine per shard otherwise.
func ingest(eng engine.Service, nShards int, path string, readOpts dataset.ReadOptions, n *int) error {
	if nShards == 1 {
		return dataset.StreamFile(path, readOpts, func(tr model.Trajectory) error {
			if _, err := eng.Add(tr); err != nil {
				return err
			}
			*n++
			return nil
		})
	}
	ch := make(chan model.Trajectory, 4*nShards)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		ingestErr error
	)
	for w := 0; w < nShards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tr := range ch {
				if _, err := eng.Add(tr); err != nil {
					mu.Lock()
					if ingestErr == nil {
						ingestErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	err := dataset.StreamFile(path, readOpts, func(tr model.Trajectory) error {
		mu.Lock()
		failed := ingestErr
		mu.Unlock()
		if failed != nil {
			return failed
		}
		ch <- tr
		*n++
		return nil
	})
	close(ch)
	wg.Wait()
	if err == nil {
		err = ingestErr
	}
	return err
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "stsserved-traced: %v\n", err)
		os.Exit(1)
	}
}
