package engine

import (
	"errors"
	"fmt"

	"github.com/stslib/sts/internal/model"
)

// Append extends the corpus trajectory id with tail samples, which must be
// strictly after its current last timestamp. The store logs only the
// encoded tail (opAppend). The superseded generation's cached derived state
// is forgotten, as Replace does: the next query that needs the grown
// trajectory builds it from scratch, and nothing is built for a record
// that is never read again.
func (e *Engine) Append(id string, tail []model.Sample) (int, error) {
	if id == "" {
		return 0, errors.New("engine: corpus trajectories need a non-empty ID")
	}
	if len(tail) == 0 {
		return 0, fmt.Errorf("engine: append to %q has no samples", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	slot, ok := e.byID[id]
	if !ok {
		return 0, fmt.Errorf("engine: trajectory %q %w", id, ErrNotFound)
	}
	oldRef := e.slots[slot].ref
	ref, err := e.corpus.Append(id, tail)
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	e.forgetDerived(refKey(oldRef))
	e.slots[slot].ref = ref
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

// TrimBefore drops every sample with timestamp < cutoff from the corpus:
// trajectories that end before the cutoff are removed entirely, ones that
// straddle it are rewritten without their expired head (a Replace in the
// store, so the WAL stays replayable and the next snapshot compacts the
// trimmed records). The sweep holds the engine's mutation lock, acting as
// one atomic retention step against concurrent appends and queries — but
// it only decodes records whose cached first timestamp precedes the
// cutoff (TrimStats.Decoded), so a sweep with nothing to expire touches
// no record bytes. Like Replace, the sweep forgets the superseded
// generations' cached derived state; the next query that needs a trimmed
// trajectory builds it from scratch.
func (e *Engine) TrimBefore(cutoff float64) (TrimStats, error) {
	var st TrimStats
	e.mu.Lock()
	defer e.mu.Unlock()
	for slot := range e.slots {
		if !e.slots[slot].used || e.slots[slot].minT >= cutoff {
			continue
		}
		ref := e.slots[slot].ref
		tr, err := ref.Decode()
		if err != nil {
			return st, fmt.Errorf("engine: %w", err)
		}
		st.Decoded++
		n := len(tr.Samples)
		if n == 0 || !(tr.Samples[0].T < cutoff) {
			continue
		}
		if tr.Samples[n-1].T < cutoff {
			if err := e.corpus.Remove(ref.ID); err != nil {
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
			return st, fmt.Errorf("engine: %w", err)
		}
		e.forgetDerived(refKey(ref))
		e.slots[slot] = corpusSlot{ref: newRef, used: true, minT: keep[0].T}
		st.Trimmed++
		st.DroppedSamples += k
	}
	return st, nil
}
