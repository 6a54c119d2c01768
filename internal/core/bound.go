package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/stprob"
)

// This file implements the filter half of the filter-and-refine query path:
// admissible upper bounds on STS computed from profile metadata, and
// thresholded ("refine only while it can still matter") exact scoring.
//
// The bound argument, in brief (DESIGN.md §11 spells it out): every location
// distribution is normalized, so each probability is ≤ 1 and each
// distribution's total mass is ≤ 1. For an observation s of Tra1 at time t,
//
//	CP(t) = Σ_r P1(r, t)·P2(r, t) ≤ Σ_{r ∈ supp(P2(·,t))} P1(r, t),
//
// and supp(P2(·, t)) is provably contained in the partner's per-bucket reach
// envelope env2(bucket(t)) — the truncation geometry of
// stprob.Estimator.candidateCellsWS evaluated over the whole bucket instead
// of one timestamp. Summing over Tra1's observations per bucket turns the
// right-hand side into "mass of the bucket's summed observation
// distributions inside the partner's envelope box", which needs only the
// profile, not the estimator. Timestamps whose bucket falls outside the
// partner's bucket range contribute exactly zero (bucketIndex is monotone,
// so an out-of-range bucket implies an out-of-span timestamp).

// boundInflate pads upper bounds and early-exit comparisons against
// floating-point rounding: the bounds are admissible in real arithmetic, and
// this relative margin dominates the summation error of any realistic
// trajectory length, so pruned query paths return exactly the same results
// as exhaustive ones.
const boundInflate = 1 + 1e-9

// cellBox is an inclusive axis-aligned cell range in lattice coordinates.
type cellBox struct{ c0, c1, r0, r1 int32 }

func emptyBox() cellBox { return cellBox{c0: 1, c1: 0} }

// universalBox contains every cell of any grid.
func universalBox() cellBox { return cellBox{0, math.MaxInt32, 0, math.MaxInt32} }

func (b cellBox) empty() bool { return b.c0 > b.c1 || b.r0 > b.r1 }

func (b cellBox) union(o cellBox) cellBox {
	if b.empty() {
		return o
	}
	if o.empty() {
		return b
	}
	return cellBox{
		c0: min32(b.c0, o.c0), c1: max32(b.c1, o.c1),
		r0: min32(b.r0, o.r0), r1: max32(b.r1, o.r1),
	}
}

func (b cellBox) intersect(o cellBox) cellBox {
	return cellBox{
		c0: max32(b.c0, o.c0), c1: min32(b.c1, o.c1),
		r0: max32(b.r0, o.r0), r1: min32(b.r1, o.r1),
	}
}

func (b cellBox) intersects(o cellBox) bool { return !b.intersect(o).empty() }

// contains reports o ⊆ b (an empty o is contained in anything).
func (b cellBox) contains(o cellBox) bool {
	if o.empty() {
		return true
	}
	return b.c0 <= o.c0 && o.c1 <= b.c1 && b.r0 <= o.r0 && o.r1 <= b.r1
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func rangeBox(g *geo.Grid, p geo.Point, radius float64) cellBox {
	c0, c1, r0, r1 := g.CellRangeWithin(p, radius)
	return cellBox{int32(c0), int32(c1), int32(r0), int32(r1)}
}

// distStats returns the support bounding box, maximum probability and total
// mass of a distribution (zero-probability cells excluded from the box).
func distStats(d stprob.Dist, nx int) (box cellBox, maxP, sum float64) {
	box = emptyBox()
	for k, c := range d.Cells {
		p := d.Probs[k]
		if p <= 0 {
			continue
		}
		sum += p
		if p > maxP {
			maxP = p
		}
		col, row := int32(c%nx), int32(c/nx)
		box = box.union(cellBox{col, col, row, row})
	}
	return box, maxP, sum
}

// sumObsDists sums a run of observation distributions. A run with a single
// mass-carrying distribution aliases it (the Prepared cache is immutable);
// otherwise the result owns its storage.
func sumObsDists(obs []stprob.Dist) stprob.Dist {
	var acc stprob.Dist
	for _, d := range obs {
		switch {
		case d.IsZero():
		case acc.IsZero():
			acc = d
		default:
			acc = mergeSum(acc, d)
		}
	}
	return acc
}

// mergeSum returns the cell-wise sum of two sorted sparse distributions,
// always into fresh storage.
func mergeSum(a, b stprob.Dist) stprob.Dist {
	out := stprob.Dist{
		Cells: make([]int, 0, len(a.Cells)+len(b.Cells)),
		Probs: make([]float64, 0, len(a.Cells)+len(b.Cells)),
	}
	i, j := 0, 0
	for i < len(a.Cells) && j < len(b.Cells) {
		switch {
		case a.Cells[i] < b.Cells[j]:
			out.Cells = append(out.Cells, a.Cells[i])
			out.Probs = append(out.Probs, a.Probs[i])
			i++
		case a.Cells[i] > b.Cells[j]:
			out.Cells = append(out.Cells, b.Cells[j])
			out.Probs = append(out.Probs, b.Probs[j])
			j++
		default:
			out.Cells = append(out.Cells, a.Cells[i])
			out.Probs = append(out.Probs, a.Probs[i]+b.Probs[j])
			i++
			j++
		}
	}
	out.Cells = append(out.Cells, a.Cells[i:]...)
	out.Probs = append(out.Probs, a.Probs[i:]...)
	out.Cells = append(out.Cells, b.Cells[j:]...)
	out.Probs = append(out.Probs, b.Probs[j:]...)
	return out
}

// buildBoundData derives the filter-and-refine metadata of a freshly built
// profile: per-entry stats and suffix weights (profiled bound), observation
// runs with summed distributions (exact bound numerators), and per-bucket
// reach envelopes (exact bound denominators' spatial filter).
func (m *Measure) buildBoundData(prof *Profile, p *Prepared) {
	g := m.grid
	prof.nx = g.Cols()
	w := prof.BucketSeconds
	samples := p.Tr.Samples
	prof.b0 = bucketIndex(p.Tr.Start(), w)
	prof.b1 = bucketIndex(p.Tr.End(), w)

	ne := len(prof.buckets)
	if ne > 0 { // as DecodeProfile allocates them
		prof.entryBox = make([]cellBox, ne)
		prof.entryMax = make([]float64, ne)
		prof.entrySum = make([]float64, ne)
	}
	prof.sufW = make([]int64, ne+1)
	for i := ne - 1; i >= 0; i-- {
		prof.sufW[i] = prof.sufW[i+1] + int64(prof.weights[i])
	}
	for i := 0; i < ne; i++ {
		box, maxP, sum := distStats(prof.dists[i], prof.nx)
		prof.entryBox[i] = box
		prof.entryMax[i] = maxP
		prof.entrySum[i] = sum
		if maxP > prof.maxEntryMax {
			prof.maxEntryMax = maxP
		}
		if sum > prof.maxEntrySum {
			prof.maxEntrySum = sum
		}
	}

	// Observation runs grouped by bucketIndex(T). The grouping must use
	// bucketIndex (not the profile loop's bucket-end comparison): floor and
	// float division are monotone, so a run whose bucket falls outside the
	// partner's [b0, b1] provably lies outside the partner's span and can be
	// skipped without touching the score. A run carries mass exactly when
	// one of its observations does (the sum keeps every cell), so a first
	// pass counts those runs and the run slices are allocated once, left
	// nil when none carries mass (as DecodeProfile leaves them).
	runEnd := func(si int) (int64, int) {
		b := bucketIndex(samples[si].T, w)
		sj := si + 1
		for sj < len(samples) && bucketIndex(samples[sj].T, w) == b {
			sj++
		}
		return b, sj
	}
	runs := 0
	for si := 0; si < len(samples); {
		_, sj := runEnd(si)
		for _, d := range p.obs[si:sj] {
			if !d.IsZero() {
				runs++
				break
			}
		}
		si = sj
	}
	if runs > 0 {
		prof.bndBuckets = make([]int64, 0, runs)
		prof.bndFirst = make([]int32, 0, runs)
		prof.bndCount = make([]int32, 0, runs)
		prof.bndDist = make([]stprob.Dist, 0, runs)
		prof.bndBox = make([]cellBox, 0, runs)
		prof.bndMass = make([]float64, 0, runs)
	}
	for si := 0; si < len(samples); {
		b, sj := runEnd(si)
		if sum := sumObsDists(p.obs[si:sj]); !sum.IsZero() {
			box, _, mass := distStats(sum, prof.nx)
			prof.bndBuckets = append(prof.bndBuckets, b)
			prof.bndFirst = append(prof.bndFirst, int32(si))
			prof.bndCount = append(prof.bndCount, int32(sj-si))
			prof.bndDist = append(prof.bndDist, sum)
			prof.bndBox = append(prof.bndBox, box)
			prof.bndMass = append(prof.bndMass, mass)
		}
		si = sj
	}

	if p.est.Exact {
		prof.unbounded = true // supports span the whole grid
		return
	}

	// Reach envelopes, mirroring stprob.Estimator.candidateCellsWS: between
	// observations the support is contained in the intersection of the two
	// reachability disks' cell boxes (radii taken at the bucket's extreme
	// times, so the box covers every timestamp in the bucket), unioned with
	// the noise box around the time-interpolated position (the estimator's
	// disjoint-disk fallback). Observed timestamps contribute their exact
	// support boxes. Radii and interpolation fractions are padded a hair so
	// float rounding of bucket edges can never exclude a reachable cell.
	nb := int(prof.b1 - prof.b0 + 1)
	env := make([]cellBox, nb)
	for i := range env {
		env[i] = emptyBox()
	}
	for i, b := range prof.bndBuckets {
		k := b - prof.b0
		env[k] = env[k].union(prof.bndBox[i])
	}
	nr := m.noise.SupportRadius()
	if nr <= 0 {
		nr = g.CellSize() / 2
	}
	v := p.est.MaxSpeed
	const padRel = 1e-9
	for i := 0; i+1 < len(samples); i++ {
		prev, next := samples[i], samples[i+1]
		if !(next.T > prev.T) {
			continue // no strictly-in-between timestamps
		}
		gap := prev.Loc.Dist(next.Loc)
		span := next.T - prev.T
		sb0 := bucketIndex(prev.T, w)
		sb1 := bucketIndex(next.T, w)
		for b := sb0; b <= sb1; b++ {
			tlo := math.Max(prev.T, float64(b)*w)
			thi := math.Min(next.T, float64(b+1)*w)
			pad := padRel * (w + span)
			var rPrev, rNext float64
			if v > 0 {
				rPrev = nr + v*math.Min(span, thi-prev.T+pad)
				rNext = nr + v*math.Min(span, next.T-tlo+pad)
			} else {
				rPrev = nr + gap
				rNext = nr + gap
			}
			box := rangeBox(g, prev.Loc, rPrev).intersect(rangeBox(g, next.Loc, rNext))
			flo := math.Max(0, (tlo-prev.T)/span-padRel)
			fhi := math.Min(1, (thi-prev.T)/span+padRel)
			fb := rangeBox(g, prev.Loc.Lerp(next.Loc, flo), nr).
				union(rangeBox(g, prev.Loc.Lerp(next.Loc, fhi), nr))
			k := b - prof.b0
			env[k] = env[k].union(box).union(fb)
		}
	}
	prof.env = env
}

// envAt returns the reach envelope of bucket b, which must lie in
// [p.b0, p.b1].
func (p *Profile) envAt(b int64) cellBox {
	if p.unbounded {
		return universalBox()
	}
	return p.env[b-p.b0]
}

// massInBox returns the mass of d inside box, using the precomputed support
// box and total mass to resolve the disjoint and fully-covered cases in
// O(1).
func massInBox(d stprob.Dist, dbox cellBox, mass float64, box cellBox, nx int) float64 {
	if !box.intersects(dbox) {
		return 0
	}
	if box.contains(dbox) {
		return mass
	}
	var s float64
	for k, c := range d.Cells {
		col, row := int32(c%nx), int32(c/nx)
		if box.c0 <= col && col <= box.c1 && box.r0 <= row && row <= box.r1 {
			s += d.Probs[k]
		}
	}
	return s
}

func checkBoundPair(a, b *Profile) error {
	if a == nil || b == nil {
		return errors.New("core: bound needs two profiles")
	}
	if a.BucketSeconds != b.BucketSeconds {
		return fmt.Errorf("core: profile bucket widths differ (%v vs %v)", a.BucketSeconds, b.BucketSeconds)
	}
	if a.sufW == nil || b.sufW == nil {
		return errors.New("core: profiles carry no bound data")
	}
	if a.n+b.n == 0 {
		return errors.New("core: both trajectories are empty")
	}
	return nil
}

// UpperBound returns an admissible upper bound on the exact
// SimilarityPrepared score of the two profiled trajectories:
// UpperBound(a, b) ≥ STS(Tra_a, Tra_b) always. A zero bound additionally
// certifies that the exact score is exactly zero (no support cell is ever
// shared). Cost is one pass over the profiles' observation-run metadata — no
// estimator work.
func UpperBound(a, b *Profile) (float64, error) {
	if err := checkBoundPair(a, b); err != nil {
		return 0, err
	}
	total := sideBound(a, b) + sideBound(b, a)
	if total <= 0 {
		return 0, nil
	}
	return total * boundInflate / float64(a.n+b.n), nil
}

// sideBound bounds Σ_{s ∈ Tra_a} CP(s): per observation run, the mass of
// a's summed observation distributions inside b's reach envelope.
func sideBound(a, b *Profile) float64 {
	var t float64
	for i, bb := range a.bndBuckets {
		if bb < b.b0 || bb > b.b1 {
			continue // outside b's span: CP is identically zero there
		}
		t += massInBox(a.bndDist[i], a.bndBox[i], a.bndMass[i], b.envAt(bb), a.nx)
	}
	return t
}

// UpperBoundProfiled returns an admissible upper bound on
// SimilarityProfiled(a, b), the refinement target of the profiled engine:
// per shared bucket, Dot(d_a, d_b) ≤ min(max_a·mass_b, max_b·mass_a), and
// zero when the support boxes are disjoint. A zero bound certifies a
// floating-point-exact zero profiled score. O(1) per shared bucket.
func UpperBoundProfiled(a, b *Profile) (float64, error) {
	if err := checkBoundPair(a, b); err != nil {
		return 0, err
	}
	if a.boundsOnly || b.boundsOnly {
		return 0, errBoundsOnly
	}
	var total float64
	i, j := 0, 0
	for i < len(a.buckets) && j < len(b.buckets) {
		switch {
		case a.buckets[i] < b.buckets[j]:
			i++
		case a.buckets[i] > b.buckets[j]:
			j++
		default:
			if w := a.weights[i] + b.weights[j]; w > 0 && a.entryBox[i].intersects(b.entryBox[j]) {
				m := a.entryMax[i] * b.entrySum[j]
				if alt := b.entryMax[j] * a.entrySum[i]; alt < m {
					m = alt
				}
				total += float64(w) * m
			}
			i++
			j++
		}
	}
	if total <= 0 {
		return 0, nil
	}
	return total * boundInflate / float64(a.n+b.n), nil
}

// SimilarityProfiledThreshold is SimilarityProfiled with an early exit fed
// by the profiles' suffix weights: once the running total plus
// (remaining timestamp weight)·(best possible per-timestamp co-location)
// provably stays below theta, the merge stops. Completion is bit-identical
// to SimilarityProfiled; an early exit returns (bound, false, nil) with an
// admissible upper bound on the profiled score.
func SimilarityProfiledThreshold(a, b *Profile, theta float64) (float64, bool, error) {
	if err := checkBoundPair(a, b); err != nil {
		return 0, false, err
	}
	if a.boundsOnly || b.boundsOnly {
		return 0, false, errBoundsOnly
	}
	n := a.n + b.n
	thetaN := theta * float64(n)
	perT := a.maxEntryMax * b.maxEntrySum
	if alt := b.maxEntryMax * a.maxEntrySum; alt < perT {
		perT = alt
	}
	var total float64
	i, j := 0, 0
	for i < len(a.buckets) && j < len(b.buckets) {
		switch {
		case a.buckets[i] < b.buckets[j]:
			i++
		case a.buckets[i] > b.buckets[j]:
			j++
		default:
			rem := float64(a.sufW[i]+b.sufW[j]) * perT
			if (total+rem)*boundInflate < thetaN {
				return (total + rem) * boundInflate / float64(n), false, nil
			}
			if w := a.weights[i] + b.weights[j]; w > 0 {
				total += float64(w) * a.dists[i].Dot(b.dists[j])
			}
			i++
			j++
		}
	}
	return total / float64(n), true, nil
}

// refineScratch is the pooled evaluation state of one RefineThreshold call.
type refineScratch struct {
	ps   pairScratch
	ubs  []float64
	sufs []float64
}

var refinePool = newPool(func() *refineScratch { return new(refineScratch) })

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// RefineThreshold is the engine-grade thresholded exact scorer: it uses the
// pair's profiles to compute per-observation-run upper-bound terms, skips
// runs that provably contribute an exact zero, and early-exits as soon as
// the partial sum plus the remaining runs' bound cannot reach theta.
// Observation runs are processed in timestamp order (a's samples, then b's),
// so a completed refinement returns the bit-identical SimilarityPrepared
// score; an early exit returns (bound, false, nil) with an admissible upper
// bound below theta. pa/pb must be profiles of a/b under the same measure.
func (m *Measure) RefineThreshold(a, b *Prepared, pa, pb *Profile, theta float64) (float64, bool, error) {
	if err := checkBoundPair(pa, pb); err != nil {
		return 0, false, err
	}
	if pa.n != a.Tr.Len() || pb.n != b.Tr.Len() {
		return 0, false, errors.New("core: RefineThreshold profiles do not match the prepared trajectories")
	}
	n := a.Tr.Len() + b.Tr.Len()
	thetaN := theta * float64(n)
	rs := refinePool.get()
	defer refinePool.put(rs)
	na := len(pa.bndBuckets)
	nt := na + len(pb.bndBuckets)
	rs.ubs = growFloats(rs.ubs, nt)
	rs.sufs = growFloats(rs.sufs, nt+1)
	for i, bb := range pa.bndBuckets {
		if bb < pb.b0 || bb > pb.b1 {
			rs.ubs[i] = 0
			continue
		}
		rs.ubs[i] = massInBox(pa.bndDist[i], pa.bndBox[i], pa.bndMass[i], pb.envAt(bb), pa.nx)
	}
	for j, bb := range pb.bndBuckets {
		if bb < pa.b0 || bb > pa.b1 {
			rs.ubs[na+j] = 0
			continue
		}
		rs.ubs[na+j] = massInBox(pb.bndDist[j], pb.bndBox[j], pb.bndMass[j], pa.envAt(bb), pb.nx)
	}
	rs.sufs[nt] = 0
	for i := nt - 1; i >= 0; i-- {
		rs.sufs[i] = rs.sufs[i+1] + rs.ubs[i]
	}
	var acc float64
	for i := 0; i < nt; i++ {
		if rs.sufs[i] == 0 {
			break // every remaining run contributes a floating-point-exact zero
		}
		if (acc+rs.sufs[i])*boundInflate < thetaN {
			return (acc + rs.sufs[i]) * boundInflate / float64(n), false, nil
		}
		if rs.ubs[i] == 0 {
			continue // this run's co-locations are all exactly zero
		}
		var side *Prepared
		var first, count int
		if i < na {
			side, first, count = a, int(pa.bndFirst[i]), int(pa.bndCount[i])
		} else {
			side, first, count = b, int(pb.bndFirst[i-na]), int(pb.bndCount[i-na])
		}
		for _, s := range side.Tr.Samples[first : first+count] {
			cp, err := coLocationWS(&rs.ps, a, b, s.T)
			if err != nil {
				return 0, false, err
			}
			acc += cp
		}
	}
	return acc / float64(n), true, nil
}
