package engine

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach is the library's single worker-pool executor: it runs f(0..n-1)
// across up to `workers` goroutines (0 selects GOMAXPROCS), stops claiming
// new indices at the first error or when ctx is cancelled, and waits for
// every in-flight f to return before it does — callers never leak
// goroutines. The first error wins; a cancelled context reports ctx.Err().
//
// Every parallel fan-out in the library (matrix scoring, matching,
// linking, top-k, preparation) routes through this function, so context
// cancellation and deadline propagation behave identically everywhere.
func ForEach(ctx context.Context, n, workers int, f func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// matrix fills an n×m matrix with f(i, j), mapping NaN and scores below
// minScore to −Inf, parallelizing over rows through ForEach. Long rows
// re-check the context periodically so a cancellation returns promptly
// even when n is small and m is large.
func matrix(ctx context.Context, n, m, workers int, minScore float64, f func(i, j int) (float64, error)) ([][]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]float64, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			if j&63 == 63 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			v, err := f(i, j)
			if err != nil {
				return err
			}
			if v < minScore {
				v = math.Inf(-1)
			}
			row[j] = sanitize(v)
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sanitize maps NaN scores (which would poison rankings) to −Inf.
func sanitize(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}
