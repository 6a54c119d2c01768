// Incremental maintenance of prepared state and bucketed profiles under
// retention trims — the mirror image of append.go for the other end of the
// trajectory: dropping an expired head instead of growing the tail.
//
// Both entry points are bit-identical to a full rebuild of the trimmed
// trajectory (the trim goldens pin this):
//
//   - TrimPrepared drops the expired samples and their cached noise
//     distributions and reuses the surviving ones verbatim — like appends,
//     observation distributions depend only on the measure's grid, noise
//     model, and support cap, never on the transition estimator. The
//     transition spec is re-derived, since a personalized speed model loses
//     speed observations with every trim.
//   - TrimProfile drops every bucket before the one holding the new first
//     observation, always recomputes that boundary bucket (its weight and
//     representative observation change with the cut), and copies the rest:
//     buckets after the boundary keep their sample sets, their exact cached
//     representatives, and — because their centers lie past the new start —
//     their unclamped interpolation times. Only with a trajectory-dependent
//     transition provider (personalized KDE) are the interpolated
//     (weightless) suffix buckets recomputed, their Markov estimates having
//     shifted with the lost speed samples. With a trajectory-independent
//     provider the incremental trim costs O(boundary bucket).
//
// Bound metadata is rebuilt through the same buildBoundData pass a fresh
// profile gets, exactly as AppendProfile does: linear in samples and
// buckets, no interpolation work, and one code path to keep admissible.
package core

import (
	"errors"
	"fmt"

	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// TrimPrepared drops the first drop samples of a prepared trajectory,
// reusing the cached noise distributions of the surviving observations. The
// result is bit-identical to Prepare of the trimmed trajectory. drop must
// leave at least one sample; old is not mutated.
func (m *Measure) TrimPrepared(old *Prepared, drop int) (*Prepared, error) {
	if old == nil || old.Tr.Len() == 0 {
		return nil, errors.New("core: TrimPrepared needs a non-empty prepared trajectory")
	}
	if drop <= 0 || drop >= old.Tr.Len() {
		return nil, fmt.Errorf("core: TrimPrepared of %q must drop between 1 and %d samples, got %d",
			old.Tr.ID, old.Tr.Len()-1, drop)
	}
	n := old.Tr.Len() - drop
	samples := make([]model.Sample, n)
	copy(samples, old.Tr.Samples[drop:])
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
	p := &Prepared{Tr: tr, est: est, obs: make([]stprob.Dist, n)}
	copy(p.obs, old.obs[drop:])
	return p, nil
}

// TrimProfile builds the profile of a head-trimmed trajectory from the
// profile of the original: p must be the prepared state of the trimmed
// trajectory (typically from TrimPrepared) and old the profile of a strict
// supersequence ending in exactly p's samples, built with the same bucket
// width. The result is bit-identical to Measure.Profile(p, opts); only the
// buckets a rebuild could change are recomputed (see the file comment for
// the exact recompute set).
func (m *Measure) TrimProfile(old *Profile, p *Prepared, opts ProfileOptions) (*Profile, error) {
	w, err := opts.bucketWidth()
	if err != nil {
		return nil, err
	}
	if p == nil || p.Tr.Len() == 0 {
		return nil, errors.New("core: TrimProfile needs a non-empty prepared trajectory")
	}
	if old == nil || old.ID != p.Tr.ID || old.BucketSeconds != w || old.n <= p.Tr.Len() {
		return nil, errors.New("core: TrimProfile needs the profile of a strict supersequence of the prepared trajectory (same ID and bucket width)")
	}
	b0, b1 := bucketIndex(p.Tr.Start(), w), bucketIndex(p.Tr.End(), w)
	if nb := b1 - b0 + 1; nb > maxProfileBuckets {
		return nil, fmt.Errorf("core: profile of %q would span %d buckets (max %d); widen ProfileOptions.BucketSeconds",
			p.Tr.ID, nb, maxProfileBuckets)
	}
	// b0 is the boundary bucket: it holds the new first observation and may
	// have held expired ones, so its weight and representative change with
	// the cut. Samples are time-sorted, so no expired sample can reach a
	// later bucket; buckets past b0 keep their sample sets, and their empty
	// buckets' representative centers exceed the new start (no clamping
	// change) — a rebuild reproduces them unchanged unless the transition
	// model itself moved.
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
		if b > b0 && (weight > 0 || stable) {
			// A rebuild reproduces this suffix entry unchanged: mirror it
			// verbatim, including its absence (an all-zero distribution is
			// trimmed away by both builds).
			if hasOld {
				if old.weights[oi] != weight {
					return nil, fmt.Errorf("core: TrimProfile: bucket %d weight %d != profile's %d; old profile is not a supersequence of %q",
						b, weight, old.weights[oi], p.Tr.ID)
				}
				copyProfileEntry(prof, old, oi)
			}
			continue
		}
		// Recomputed bucket: the boundary bucket the cut ran through, or an
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
