// Incremental maintenance of prepared state and bucketed profiles under
// sample appends, as an alternative to re-deriving a trajectory's state
// from scratch on every extension. The engine does not use it: its only
// callers are e2ebench's core.append_profile_us probe and the goldens.
//
// Both entry points are bit-identical to a full rebuild of the extended
// trajectory (the append goldens pin this):
//
//   - AppendPrepared reuses the old per-observation noise distributions
//     verbatim — they depend only on the measure's grid, noise model, and
//     support cap, never on the transition estimator — and computes fresh
//     ones only for the tail. The transition spec is re-derived, since a
//     personalized speed model gains speed observations with every append.
//   - AppendProfile copies every prefix bucket entry a rebuild provably
//     reproduces unchanged and recomputes the rest: buckets at or after the
//     previous last observation always, plus — only when the transition
//     provider is trajectory-dependent (personalized KDE) — the
//     interpolated (weightless) prefix buckets, whose Markov estimates
//     shift with the new speed samples. Weight-carrying buckets are exact
//     cached noise distributions either way and are never re-derived. With
//     a trajectory-independent provider (global speed, frequency
//     transitions, fixed transition) the whole prefix is copied and the
//     incremental build costs O(tail) interpolations.
//
// Bound metadata (reach envelopes, observation runs, entry stats) is
// rebuilt through the same buildBoundData pass a fresh profile gets: it is
// linear in samples and buckets with no interpolation work, and reusing the
// one code path keeps admissibility and bit-identity trivially.
package core

import (
	"errors"
	"fmt"

	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// providerStable reports whether a transition provider's spec is
// independent of the trajectory it is asked about, making interpolated
// profile entries stable under appends. Unknown providers are conservatively
// treated as trajectory-dependent.
func providerStable(p TransitionProvider) bool {
	switch v := p.(type) {
	case GlobalSpeed, FrequencyTransitions, FixedTransition:
		return true
	case StripRadial:
		return providerStable(v.Provider)
	default:
		return false
	}
}

// AppendPrepared extends a prepared trajectory with tail samples, reusing
// the cached noise distributions of the existing observations. The result
// is bit-identical to Prepare of the concatenated trajectory. The tail must
// be strictly after the existing samples; old is not mutated.
func (m *Measure) AppendPrepared(old *Prepared, tail []model.Sample) (*Prepared, error) {
	if old == nil || old.Tr.Len() == 0 {
		return nil, errors.New("core: AppendPrepared needs a non-empty prepared trajectory")
	}
	if len(tail) == 0 {
		return nil, errors.New("core: AppendPrepared needs at least one tail sample")
	}
	n := old.Tr.Len()
	samples := make([]model.Sample, n+len(tail))
	copy(samples, old.Tr.Samples)
	copy(samples[n:], tail)
	tr := model.Trajectory{ID: old.Tr.ID, Samples: samples}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	spec, err := m.provider.For(tr)
	if err != nil {
		return nil, fmt.Errorf("core: transition model for %q: %w", tr.ID, err)
	}
	est := &stprob.Estimator{
		Grid:              m.grid,
		Noise:             m.noise,
		Trans:             spec.Trans,
		Radial:            spec.Radial,
		MaxSpeed:          spec.MaxSpeed,
		Exact:             m.exact,
		MaxCandidateCells: m.maxCand,
		MaxSupportCells:   m.maxSupp,
		SpeedSlack:        m.slack,
	}
	p := &Prepared{Tr: tr, est: est, obs: make([]stprob.Dist, len(samples))}
	copy(p.obs, old.obs)
	for i := n; i < len(samples); i++ {
		p.obs[i] = est.ObservedDist(samples[i].Loc)
	}
	return p, nil
}

// AppendProfile builds the profile of an extended trajectory from the
// profile of its prefix: p must be the prepared state of the full
// trajectory (typically from AppendPrepared) and old the profile of its
// first old.SampleCount() samples, built with the same bucket width. The
// result is bit-identical to Measure.Profile(p, opts); only the buckets a
// rebuild could change are recomputed (see the package comment for the
// exact recompute set).
func (m *Measure) AppendProfile(old *Profile, p *Prepared, opts ProfileOptions) (*Profile, error) {
	w, err := opts.bucketWidth()
	if err != nil {
		return nil, err
	}
	if p == nil || p.Tr.Len() == 0 {
		return nil, errors.New("core: AppendProfile needs a non-empty prepared trajectory")
	}
	if old == nil || old.ID != p.Tr.ID || old.BucketSeconds != w || old.n <= 0 || old.n >= p.Tr.Len() {
		return nil, errors.New("core: AppendProfile needs the profile of a strict prefix of the prepared trajectory (same ID and bucket width)")
	}
	if opts.BoundsOnly || old.boundsOnly {
		return nil, errors.New("core: AppendProfile extends full profiles only")
	}
	b0, b1 := bucketIndex(p.Tr.Start(), w), bucketIndex(p.Tr.End(), w)
	if nb := b1 - b0 + 1; nb > maxProfileBuckets {
		return nil, fmt.Errorf("core: profile of %q would span %d buckets (max %d); widen ProfileOptions.BucketSeconds",
			p.Tr.ID, nb, maxProfileBuckets)
	}
	// Buckets strictly before the one holding the previous last observation
	// keep their sample sets and (clamped) representative times under the
	// append; whether their values survive too depends on the provider.
	bTail := bucketIndex(p.Tr.Samples[old.n-1].T, w)
	stable := providerStable(m.provider)
	prof := &Profile{ID: p.Tr.ID, BucketSeconds: w, n: p.Tr.Len()}
	ws := scratchPool.get()
	defer scratchPool.put(ws)
	si, oi := 0, 0
	for b := b0; b <= b1; b++ {
		bucketEnd := float64(b+1) * w
		var weight int32
		first := -1
		for si < len(p.Tr.Samples) && p.Tr.Samples[si].T < bucketEnd {
			if weight == 0 {
				first = si
			}
			weight++
			si++
		}
		for oi < len(old.buckets) && old.buckets[oi] < b {
			oi++
		}
		hasOld := oi < len(old.buckets) && old.buckets[oi] == b
		if b < bTail && (weight > 0 || stable) {
			// A rebuild reproduces this prefix entry unchanged: mirror it
			// verbatim, including its absence (an all-zero distribution is
			// trimmed away by both builds).
			if hasOld {
				if old.weights[oi] != weight {
					return nil, fmt.Errorf("core: AppendProfile: bucket %d weight %d != profile's %d; old profile is not a prefix of %q",
						b, weight, old.weights[oi], p.Tr.ID)
				}
				copyProfileEntry(prof, old, oi)
			}
			continue
		}
		// Recomputed bucket: touched by the appended samples, or an
		// interpolated estimate that moved with the trajectory-dependent
		// transition model.
		var d stprob.Dist
		if weight > 0 {
			d = p.obs[first]
		} else {
			var derr error
			if d, derr = p.bucketCenterDist(&ws.a, b, w); derr != nil {
				return nil, derr
			}
		}
		appendProfileEntry(prof, b, weight, d)
	}
	finishProfileViews(prof)
	if opts.Bounds {
		m.buildBoundData(prof, p)
	}
	return prof, nil
}
