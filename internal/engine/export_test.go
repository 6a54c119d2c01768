package engine

import "github.com/stslib/sts/internal/core"

// RecordCap is the record cache's fixed capacity, per engine.
const RecordCap = recordCap

// CachedProfiles returns the completed entries of e's profile cache, so
// the external tests can inspect what an engine keeps.
func (e *Engine) CachedProfiles() []*core.Profile {
	var out []*core.Profile
	e.profiles.each(func(_ prepKey, p *core.Profile) { out = append(out, p) })
	return out
}

// CachedRecords returns how many decoded record arrays each engine's
// record cache holds: one count for an Engine, one per shard for a
// Sharded. Each entry keeps one array alive.
func (e *Engine) CachedRecords() []int {
	n := 0
	e.records.m.Range(func(_, _ any) bool {
		n++
		return true
	})
	return []int{n}
}

// CachedRecords returns each shard's count (see Engine.CachedRecords).
func (s *Sharded) CachedRecords() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.CachedRecords()[0]
	}
	return out
}
