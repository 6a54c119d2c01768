package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/stslib/sts/internal/stprob"
)

// ProfileOptions configures the bucketed S-T profile approximation of
// SimilarityProfiled: time is quantized into fixed-width buckets and each
// trajectory's location distributions are precomputed once per bucket, so
// pair scoring becomes a sparse dot-product join instead of re-running the
// Markov interpolation of Eq. 4 for every pair.
type ProfileOptions struct {
	// BucketSeconds is the width of one time bucket. It is the accuracy ↔
	// speed knob: profiled scores converge to the exact SimilarityPrepared
	// values as BucketSeconds → 0 and get cheaper (fewer buckets per
	// trajectory) as it grows. Zero selects DefaultProfileBucketSeconds;
	// negative or non-finite values are rejected.
	BucketSeconds float64
	// Bounds additionally precomputes the filter-and-refine bound state
	// (reach envelopes, per-bucket mass summaries — see bound.go), which
	// UpperBound and the thresholded scorers require. Off by default: pure
	// profiled scoring never reads it, and skipping it keeps transient
	// profile builds cheap. Engines that score through profiles opt in for
	// their cached profiles.
	Bounds bool
	// BoundsOnly builds the bound state alone (it implies Bounds), without
	// the scoring entries. UpperBound and RefineThreshold read only the
	// observations' Eq. 5 noise distributions, the speed bound and the
	// reach geometry, so such a profile serves them with no Eq. 4
	// interpolation and without building the transition model's KDE table.
	// The profiled scorers (SimilarityProfiled, UpperBoundProfiled,
	// SimilarityProfiledThreshold) return an error on it. Engines that
	// score exactly cache these.
	BoundsOnly bool
}

// DefaultProfileBucketSeconds is the default profile bucket width. It sits
// at the scale of typical sampling gaps (15 s taxi GPS, ~25 s mall WiFi),
// so weight-carrying buckets mostly hold a single observation and the
// quantization error stays within one inter-sample interpolation step.
const DefaultProfileBucketSeconds = 30

// maxProfileBuckets bounds the bucket count of one profile. A pathological
// width (microseconds against an hours-long trajectory) would otherwise
// materialize millions of distributions; beyond the bound Profile returns
// an error instead of exhausting memory.
const maxProfileBuckets = 1 << 20

// bucketWidth resolves the configured width, validating it.
func (o ProfileOptions) bucketWidth() (float64, error) {
	w := o.BucketSeconds
	if w == 0 {
		w = DefaultProfileBucketSeconds
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("core: ProfileOptions.BucketSeconds must be positive and finite, got %v", o.BucketSeconds)
	}
	return w, nil
}

// Profile is one trajectory's sparse spatial-temporal profile: for every
// time bucket intersecting the trajectory's active span, the normalized
// location distribution STP(·, t_b, Tra) at the bucket's representative
// time, plus the number of the trajectory's own observations in the bucket
// (the timestamp weight of Eq. 10's average). Buckets whose distribution is
// zero are omitted — they can never contribute co-location mass. A
// bound-only profile (ProfileOptions.BoundsOnly) holds no such entries,
// only the filter-and-refine bound state.
//
// Profiles are immutable after construction and safe for concurrent use;
// their distributions own their storage (two shared backing arrays), so a
// profile stays valid independently of the Prepared it was built from.
type Profile struct {
	// ID is the source trajectory's ID.
	ID string
	// BucketSeconds is the bucket width the profile was built with. Only
	// profiles with identical widths can be scored against each other.
	BucketSeconds float64

	n       int     // the trajectory's sample count, Eq. 10's per-side weight
	buckets []int64 // sorted ascending
	weights []int32 // own-observation count per bucket
	dists   []stprob.Dist
	// cells/probs back every entry's Dist, keeping the profile compact
	// (two allocations instead of two per bucket).
	cells []int
	probs []float64

	// boundsOnly marks a profile built with ProfileOptions.BoundsOnly: it
	// holds no entries, and the profiled scorers refuse it.
	boundsOnly bool

	// Filter-and-refine bound state (see bound.go). nx decomposes cell
	// indices into lattice coordinates; b0/b1 is the bucket range of the
	// active span [Start, End].
	nx     int
	b0, b1 int64
	// env[b-b0] is the reach envelope of bucket b: a cell box provably
	// containing the support of STP(·, t, Tra) for every t in the bucket.
	// nil when unbounded (Exact mode: the support is the whole grid).
	env       []cellBox
	unbounded bool
	// Observation runs grouped by bucketIndex(T): bndDist[i] is the sum of
	// the (normalized) noise distributions of the run's observations, the
	// per-bucket numerator of the upper bound's mass-in-envelope terms.
	// Single-observation runs alias the Prepared cache.
	bndBuckets []int64
	bndFirst   []int32
	bndCount   []int32
	bndDist    []stprob.Dist
	bndBox     []cellBox
	bndMass    []float64
	// Per scoring entry: support box, max probability and total mass of
	// dists[i], plus suffix timestamp weights — the O(1) ingredients of the
	// profiled bound and its early-exit variant.
	entryBox    []cellBox
	entryMax    []float64
	entrySum    []float64
	sufW        []int64 // sufW[i] = Σ_{j≥i} weights[j]; len = len(weights)+1
	maxEntryMax float64
	maxEntrySum float64
}

// SampleCount returns the source trajectory's number of observations.
func (p *Profile) SampleCount() int { return p.n }

// NumBuckets returns the number of (non-zero) bucket entries.
func (p *Profile) NumBuckets() int { return len(p.buckets) }

// EntryAt returns the i-th bucket entry: the bucket index, the number of
// the trajectory's own observations in it, and the location distribution
// at its representative time. The Dist aliases the profile's backing
// arrays and must not be mutated.
func (p *Profile) EntryAt(i int) (bucket int64, weight int, d stprob.Dist) {
	return p.buckets[i], int(p.weights[i]), p.dists[i]
}

// MemoryCells returns the total number of (cell, prob) pairs the profile
// stores — its dominant memory cost.
func (p *Profile) MemoryCells() int { return len(p.cells) }

// HasBounds reports whether the profile carries filter-and-refine bound
// state (built with ProfileOptions.Bounds), which UpperBound and the
// thresholded scorers require.
func (p *Profile) HasBounds() bool { return p.sufW != nil }

// BoundsOnly reports whether the profile was built with
// ProfileOptions.BoundsOnly: it carries the bound state UpperBound and
// RefineThreshold read and no scoring entries.
func (p *Profile) BoundsOnly() bool { return p.boundsOnly }

// MemoryBytes estimates the profile's resident heap footprint: the shared
// cell/probability backing arrays (the dominant term of a full profile),
// the per-entry metadata, and the filter-and-refine bound state when
// present. Cache
// observability sums it per cached profile (/v1/stats "bytes").
func (p *Profile) MemoryBytes() int {
	const (
		intSize  = 8
		f64Size  = 8
		distSize = 48 // slice header pair (cells, probs)
		boxSize  = 16
	)
	b := len(p.cells)*intSize + len(p.probs)*f64Size
	b += len(p.buckets)*8 + len(p.weights)*4
	b += len(p.dists) * distSize
	b += len(p.env) * boxSize
	b += len(p.bndBuckets)*8 + len(p.bndFirst)*4 + len(p.bndCount)*4 + len(p.bndMass)*f64Size
	b += len(p.bndBox) * boxSize
	for i, d := range p.bndDist {
		b += distSize
		// Multi-observation runs own their summed storage; single runs alias
		// the Prepared cache and cost only their headers.
		if i < len(p.bndCount) && p.bndCount[i] > 1 {
			b += len(d.Cells) * (intSize + f64Size)
		}
	}
	b += len(p.entryBox)*boxSize + len(p.entryMax)*f64Size + len(p.entrySum)*f64Size + len(p.sufW)*8
	return b
}

// bucketIndex quantizes a timestamp onto the bucket axis shared by all
// profiles of one width (floor, so negative timestamps bucket correctly).
func bucketIndex(t, w float64) int64 {
	return int64(math.Floor(t / w))
}

// Profile builds the bucketed S-T profile of a prepared trajectory. Every
// bucket overlapping [Start, End] gets one distribution:
//
//   - a bucket holding own observations is represented at its first
//     observation's timestamp, reusing the exact (cached) noise
//     distribution — weight-carrying buckets are therefore exact;
//   - an empty bucket is represented at its center (clamped to the active
//     span), one Markov interpolation of Eq. 4.
//
// The per-trajectory cost is O(span / BucketSeconds) interpolations, paid
// once; scoring the trajectory against any partner afterwards touches only
// the precomputed distributions. With opts.BoundsOnly no entry is built:
// the profile holds the bound state alone, derived from the cached noise
// distributions without interpolating.
func (m *Measure) Profile(p *Prepared, opts ProfileOptions) (*Profile, error) {
	w, err := opts.bucketWidth()
	if err != nil {
		return nil, err
	}
	if p == nil || p.Tr.Len() == 0 {
		return nil, errors.New("core: Profile needs a non-empty prepared trajectory")
	}
	b0, b1 := bucketIndex(p.Tr.Start(), w), bucketIndex(p.Tr.End(), w)
	if nb := b1 - b0 + 1; nb > maxProfileBuckets {
		return nil, fmt.Errorf("core: profile of %q would span %d buckets (max %d); widen ProfileOptions.BucketSeconds",
			p.Tr.ID, nb, maxProfileBuckets)
	}
	prof := &Profile{ID: p.Tr.ID, BucketSeconds: w, n: p.Tr.Len(), boundsOnly: opts.BoundsOnly}
	if opts.BoundsOnly {
		m.buildBoundData(prof, p)
		return prof, nil
	}
	ws := scratchPool.get()
	defer scratchPool.put(ws)
	si := 0 // cursor over the trajectory's samples
	for b := b0; b <= b1; b++ {
		bucketEnd := float64(b+1) * w
		// Count own observations in this bucket; the first one becomes the
		// representative time with its exact cached noise distribution.
		var weight int32
		var d stprob.Dist
		for si < len(p.Tr.Samples) && p.Tr.Samples[si].T < bucketEnd {
			if weight == 0 {
				d = p.obs[si]
			}
			weight++
			si++
		}
		if weight == 0 {
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

// bucketCenterDist is the distribution of an empty bucket b: one Markov
// interpolation at the bucket's center, clamped to the active span.
func (p *Prepared) bucketCenterDist(ws *stprob.Workspace, b int64, w float64) (stprob.Dist, error) {
	t := (float64(b) + 0.5) * w
	if start := p.Tr.Start(); t < start {
		t = start
	} else if end := p.Tr.End(); t > end {
		t = end
	}
	return p.distAtWS(ws, t)
}

// appendProfileEntry appends one freshly computed bucket entry, copying the
// distribution without its explicit zero-probability cells: they contribute
// nothing to any dot product but would be paid for in memory and merge work
// on every pair evaluation. All-zero distributions append nothing. Profile
// and AppendProfile both build entries here, which keeps the two
// bit-identical. Views are rebuilt by finishProfileViews.
func appendProfileEntry(prof *Profile, b int64, weight int32, d stprob.Dist) {
	off := len(prof.cells)
	for k, c := range d.Cells {
		if pv := d.Probs[k]; pv > 0 {
			prof.cells = append(prof.cells, c)
			prof.probs = append(prof.probs, pv)
		}
	}
	if len(prof.cells) == off {
		return
	}
	prof.buckets = append(prof.buckets, b)
	prof.weights = append(prof.weights, weight)
	prof.dists = append(prof.dists, stprob.Dist{
		Cells: prof.cells[off:len(prof.cells):len(prof.cells)],
		Probs: prof.probs[off:len(prof.probs):len(prof.probs)],
	})
}

// copyProfileEntry appends old's i-th entry to prof's backing arrays
// verbatim. Views are rebuilt by finishProfileViews.
func copyProfileEntry(prof, old *Profile, i int) {
	d := old.dists[i]
	prof.cells = append(prof.cells, d.Cells...)
	prof.probs = append(prof.probs, d.Probs...)
	prof.dists = append(prof.dists, d)
	prof.buckets = append(prof.buckets, old.buckets[i])
	prof.weights = append(prof.weights, old.weights[i])
}

// finishProfileViews rebuilds every entry's distribution view over the
// final backing arrays, so all entries share one allocation even after the
// appends above grew the arrays past earlier views.
func finishProfileViews(prof *Profile) {
	off := 0
	for i := range prof.dists {
		n := len(prof.dists[i].Cells)
		prof.dists[i] = stprob.Dist{
			Cells: prof.cells[off : off+n : off+n],
			Probs: prof.probs[off : off+n : off+n],
		}
		off += n
	}
}

// SimilarityProfiled returns the bucketed approximation of STS(Tra, Tra′)
// of Eq. 10: each observation's co-location probability is evaluated at
// its bucket's representative times instead of its own timestamp, so the
// whole pair score collapses to a two-cursor merge over the profiles'
// bucket intersection with one sparse Dist.Dot per shared bucket — no
// estimator work, no allocations. The approximation converges to
// SimilarityPrepared as ProfileOptions.BucketSeconds → 0.
func (m *Measure) SimilarityProfiled(a, b *Profile) (float64, error) {
	return SimilarityProfiled(a, b)
}

// errBoundsOnly is returned by the profiled scorers for a bound-only
// profile, whose missing entries would otherwise score a silent 0.
var errBoundsOnly = errors.New("core: profile is bound-only (ProfileOptions.BoundsOnly) and has no scoring entries")

// SimilarityProfiled is the measure-independent form of
// Measure.SimilarityProfiled: profiles carry everything scoring needs.
func SimilarityProfiled(a, b *Profile) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("core: SimilarityProfiled needs two profiles")
	}
	if a.boundsOnly || b.boundsOnly {
		return 0, errBoundsOnly
	}
	if a.BucketSeconds != b.BucketSeconds {
		return 0, fmt.Errorf("core: profile bucket widths differ (%v vs %v)", a.BucketSeconds, b.BucketSeconds)
	}
	n := a.n + b.n
	if n == 0 {
		return 0, errors.New("core: both trajectories are empty")
	}
	total := mergeDots(a.buckets, b.buckets, a.weights, b.weights, a.dists, b.dists)
	return total / float64(n), nil
}
