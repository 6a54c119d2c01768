package engine

import (
	"errors"
	"fmt"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// Append extends the corpus trajectory id with tail samples, which must be
// strictly after its current last timestamp. The store logs only the
// encoded tail (opAppend). When the old generation's prepared state or
// profile is still cached, the new generation's derived state is rebuilt
// incrementally (core.AppendPrepared / core.AppendProfile — bit-identical
// to a from-scratch build) instead of being dropped for the next query to
// re-derive.
func (e *Engine) Append(id string, tail []model.Sample) (int, error) {
	if id == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	if len(tail) == 0 {
		return 0, fmt.Errorf("engine: append to %q has no samples", id)
	}
	e.mu.Lock()
	slot, ok := e.byID[id]
	if !ok {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: trajectory %q %w", id, ErrNotFound)
	}
	oldRef := e.slots[slot].ref
	ref, err := e.corpus.Append(id, tail)
	if err != nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: %w", err)
	}
	// Seize the superseded generation's derived state for incremental
	// maintenance before forgetting it.
	var oldPrep *core.Prepared
	var oldProf *core.Profile
	if e.measure != nil {
		oldPrep, _ = e.cache.peek(refKey(oldRef))
		if e.profiles != nil {
			oldProf, _ = e.profiles.peek(refKey(oldRef))
		}
	}
	e.forgetDerived(refKey(oldRef))
	e.slots[slot].ref = ref
	e.mu.Unlock()

	// Refresh derived state outside the lock: cache keys are generation-
	// scoped, so if a racing Remove/Replace supersedes ref meanwhile the
	// entries are merely unused, never wrong. Failures here only lose the
	// incremental head start — the next query rebuilds from scratch.
	if oldPrep != nil {
		p, err := e.measure.AppendPrepared(oldPrep, tail)
		if err != nil {
			return slot, nil
		}
		e.cache.put(refKey(ref), p)
		if oldProf != nil {
			if prof, err := e.measure.AppendProfile(oldProf, p, e.boundOpts); err == nil {
				e.profiles.put(refKey(ref), prof)
			}
		}
	}
	return slot, nil
}

// TrimStats reports one retention sweep.
type TrimStats struct {
	// Removed counts trajectories dropped whole (every sample older than
	// the cutoff); Trimmed counts trajectories whose head was cut.
	Removed int `json:"removed"`
	Trimmed int `json:"trimmed"`
	// DroppedSamples counts samples discarded across both kinds.
	DroppedSamples int `json:"dropped_samples"`
	// Decoded counts trajectories the sweep actually decoded. Each slot
	// caches its record's first timestamp, so records wholly at or after
	// the cutoff are skipped without touching their bytes: a sweep costs
	// O(expiring records) decode work, and a no-op sweep decodes nothing.
	Decoded int `json:"decoded"`
}

// trimWork is one straddling trajectory whose superseded derived state
// was seized under the sweep lock for incremental trimming outside it.
type trimWork struct {
	ref     store.Ref // the trimmed record's new ref
	oldPrep *core.Prepared
	oldProf *core.Profile
	drop    int // expired samples cut from the head
}

// TrimBefore drops every sample with timestamp < cutoff from the corpus:
// trajectories that end before the cutoff are removed entirely, ones that
// straddle it are rewritten without their expired head (a Replace in the
// store, so the WAL stays replayable and the next snapshot compacts the
// trimmed records). The sweep holds the engine's mutation lock, acting as
// one atomic retention step against concurrent appends and queries — but
// it only decodes records whose cached first timestamp precedes the
// cutoff (TrimStats.Decoded), so a sweep with nothing to expire touches
// no record bytes. A straddling trajectory's cached derived state is not
// discarded: it is seized under the lock and trimmed incrementally
// outside it (core.TrimPrepared / core.TrimProfile — bit-identical to a
// from-scratch rebuild), so standing queries keep their cache warmth
// across retention.
func (e *Engine) TrimBefore(cutoff float64) (TrimStats, error) {
	var st TrimStats
	var work []trimWork
	e.mu.Lock()
	for slot := range e.slots {
		if !e.slots[slot].used || e.slots[slot].minT >= cutoff {
			continue
		}
		ref := e.slots[slot].ref
		tr, err := ref.Decode()
		if err != nil {
			e.mu.Unlock()
			return st, fmt.Errorf("engine: %w", err)
		}
		st.Decoded++
		n := len(tr.Samples)
		if n == 0 || !(tr.Samples[0].T < cutoff) {
			continue
		}
		if tr.Samples[n-1].T < cutoff {
			if err := e.corpus.Remove(ref.ID); err != nil {
				e.mu.Unlock()
				return st, fmt.Errorf("engine: %w", err)
			}
			e.dropSlotLocked(slot)
			st.Removed++
			st.DroppedSamples += n
			continue
		}
		k := 0
		for k < n && tr.Samples[k].T < cutoff {
			k++
		}
		keep := make([]model.Sample, n-k)
		copy(keep, tr.Samples[k:])
		newRef, err := e.corpus.Replace(model.Trajectory{ID: ref.ID, Samples: keep})
		if err != nil {
			e.mu.Unlock()
			return st, fmt.Errorf("engine: %w", err)
		}
		// Seize the superseded generation's derived state before forgetting
		// it — the same incremental-maintenance handoff Append does.
		var oldPrep *core.Prepared
		var oldProf *core.Profile
		if e.measure != nil {
			oldPrep, _ = e.cache.peek(refKey(ref))
			if e.profiles != nil {
				oldProf, _ = e.profiles.peek(refKey(ref))
			}
		}
		e.forgetDerived(refKey(ref))
		e.slots[slot] = corpusSlot{ref: newRef, used: true, minT: keep[0].T}
		st.Trimmed++
		st.DroppedSamples += k
		if oldPrep != nil {
			work = append(work, trimWork{ref: newRef, oldPrep: oldPrep, oldProf: oldProf, drop: k})
		}
	}
	e.mu.Unlock()

	// Rebuild the trimmed derived state outside the lock: cache keys are
	// generation-scoped, so if a racing mutation supersedes a ref meanwhile
	// the entries are merely unused, never wrong. Failures here only lose
	// the incremental head start — the next query rebuilds from scratch.
	for _, w := range work {
		p, err := e.measure.TrimPrepared(w.oldPrep, w.drop)
		if err != nil {
			continue
		}
		e.cache.put(refKey(w.ref), p)
		if w.oldProf != nil {
			if prof, err := e.measure.TrimProfile(w.oldProf, p, e.boundOpts); err == nil {
				e.profiles.put(refKey(w.ref), prof)
			}
		}
	}
	return st, nil
}
