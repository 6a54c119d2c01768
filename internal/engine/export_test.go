package engine

import "github.com/stslib/sts/internal/core"

// CachedProfiles returns the completed entries of e's profile cache, so
// the external tests can inspect what an engine keeps.
func (e *Engine) CachedProfiles() []*core.Profile {
	var out []*core.Profile
	e.profiles.each(func(_ prepKey, p *core.Profile) { out = append(out, p) })
	return out
}

// HandedOut returns how many records' decoded arrays e remembers from Get
// and Subset; each entry keeps one array alive.
func (e *Engine) HandedOut() int {
	n := 0
	e.handed.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// HandedOut sums the shards' HandedOut.
func (s *Sharded) HandedOut() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.HandedOut()
	}
	return n
}
