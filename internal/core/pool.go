//go:build !race

package core

import "sync"

// pool recycles evaluation scratch across calls and goroutines, so
// steady-state scoring performs no heap allocations. Normal builds back it
// with a sync.Pool; race builds use the free list of pool_race.go.
type pool[T any] struct{ p sync.Pool }

func newPool[T any](fresh func() *T) *pool[T] {
	return &pool[T]{p: sync.Pool{New: func() any { return fresh() }}}
}

func (p *pool[T]) get() *T  { return p.p.Get().(*T) }
func (p *pool[T]) put(x *T) { p.p.Put(x) }
