//go:build race

package core

import "sync"

// pool is the race-build scratch recycler. Under the race detector a
// sync.Pool drops a random quarter of the items put back, so scoring would
// allocate fresh scratch on every fourth call and the zero-allocation
// contract (TestSimilarityPreparedZeroAllocs) could not hold there. This
// mutex-guarded free list keeps every item returned to it; it grows only to
// the largest number of scratch values ever in use at once.
type pool[T any] struct {
	mu    sync.Mutex
	free  []*T
	fresh func() *T
}

func newPool[T any](fresh func() *T) *pool[T] { return &pool[T]{fresh: fresh} }

func (p *pool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return p.fresh()
	}
	x := p.free[n-1]
	p.free = p.free[:n-1]
	return x
}

func (p *pool[T]) put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
