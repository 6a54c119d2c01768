package stprob

import (
	"errors"
	"math"
	"sort"
	"sync"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// Transition is the transition probability P(ℓ′, t′ | ℓ, t) of an object
// moving from location a at time ta to location b at time tb. The
// personalized KDE speed model of Section IV-B (kde.SpeedModel.Transition),
// the pooled/global variant, the frequency-based Markov model
// (markov.TransitionModel.ProbPoints), and the Brownian-bridge random walk
// all satisfy this signature.
type Transition func(a geo.Point, ta float64, b geo.Point, tb float64) float64

// BrownianTransition returns the Gaussian-random-walk transition of a
// Brownian motion with diffusion scale sigmaM (m/√s):
//
//	P(b, tb | a, ta) ∝ exp(−d² / (2·σm²·|Δt|)).
//
// The paper notes the Brownian bridge is the special case of STS's
// estimation when the speed distribution is assumed Gaussian; this
// constructor makes that special case available for comparison.
func BrownianTransition(sigmaM float64) Transition {
	radial := BrownianRadial(sigmaM)
	return func(a geo.Point, ta float64, b geo.Point, tb float64) float64 {
		return radial(a.Dist(b), math.Abs(ta-tb))
	}
}

// BrownianRadial is the radial form of BrownianTransition, suitable for the
// memoized fast path (see RadialTransition).
func BrownianRadial(sigmaM float64) RadialTransition {
	return func(d, dt float64) float64 {
		if dt == 0 {
			if d == 0 {
				return 1
			}
			return 0
		}
		v := sigmaM * sigmaM * dt
		return math.Exp(-d * d / (2 * v))
	}
}

// Estimator computes the spatial-temporal probability STP(r, t, Tra) of
// Eq. 5 for one trajectory: the probability that the object is at grid
// cell r at time t.
//
// The estimator is configured once and then queried; it is safe for
// concurrent use as long as its fields are not mutated.
type Estimator struct {
	// Grid is the spatial partitioning R.
	Grid *geo.Grid
	// Noise is the location-noise distribution f of the sensing system.
	Noise NoiseModel
	// Trans is the transition model (Eq. 7 by default).
	Trans Transition
	// Radial, when non-nil, declares that Trans is radially symmetric and
	// supplies its radial form: Trans(a, ta, b, tb) must equal
	// Radial(dis(a, b), |ta−tb|). It enables the lattice-offset
	// memoization of BetweenDist; Trans remains required either way.
	Radial RadialTransition
	// MaxSpeed bounds the object's plausible speed in m/s, used only to
	// truncate the candidate-cell set between observations. Zero disables
	// speed-based truncation (candidates fall back to the noise support
	// around both bracketing observations, grown to keep them connected).
	MaxSpeed float64
	// Exact disables support truncation entirely: every sum ranges over
	// all |R| cells, exactly as written in Eq. 4. Exponentially slower on
	// large grids; used by tests and the truncation ablation bench.
	Exact bool
	// MaxCandidateCells, when positive, caps the number of candidate
	// cells evaluated between observations; the cells nearest the
	// time-interpolated position are kept. Ignored in Exact mode.
	MaxCandidateCells int
	// MaxSupportCells, when positive, caps the support of an
	// observation's noise distribution; the highest-weight cells are
	// kept (for a radial noise model, the cells nearest the
	// observation). Ignored in Exact mode.
	MaxSupportCells int
	// SpeedSlack, when positive, compensates for the quantization of
	// locations to cell centers when evaluating transitions: the
	// displacement between two cells is probed at d, d−SpeedSlack and
	// d+SpeedSlack (clamped at 0) and the best value is used. Without it,
	// a grid of cell size c can only realize speeds that are multiples of
	// ~c/Δt, and an object whose personalized speed distribution is
	// narrower than that quantum (near-constant speed) would get an
	// all-zero in-between distribution. Half the grid cell size is the
	// natural value.
	SpeedSlack float64
}

// ErrNoTransition is returned when an Estimator is queried without a
// transition model.
var ErrNoTransition = errors.New("stprob: estimator has no transition model")

// ObservedDist returns the normalized location distribution of a single
// observation: f(r, ℓ) over the noise support, the first case of Eq. 5.
func (e *Estimator) ObservedDist(obs geo.Point) Dist {
	var cells []int
	if e.Exact {
		cells = e.Grid.AllCells()
	} else {
		cells = e.Grid.CellsWithin(nil, obs, e.Noise.SupportRadius())
	}
	d := Dist{Cells: cells, Probs: make([]float64, len(cells))}
	for i, c := range cells {
		d.Probs[i] = e.Noise.Weight(e.Grid.Center(c), obs)
	}
	if !e.Exact && e.MaxSupportCells > 0 && len(d.Cells) > e.MaxSupportCells {
		d = topKByWeight(d, e.MaxSupportCells)
	}
	d.sorted()
	d.normalize()
	return d
}

// topKByWeight keeps the k highest-weight cells of d. Ties in weight are
// broken by ascending cell index, so truncation is deterministic across
// runs (repeated linking produces identical supports).
func topKByWeight(d Dist, k int) Dist {
	idx := make([]int, len(d.Cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := d.Probs[idx[a]], d.Probs[idx[b]]
		if pa != pb {
			return pa > pb
		}
		return d.Cells[idx[a]] < d.Cells[idx[b]]
	})
	out := Dist{Cells: make([]int, k), Probs: make([]float64, k)}
	for i := 0; i < k; i++ {
		out.Cells[i] = d.Cells[idx[i]]
		out.Probs[i] = d.Probs[idx[i]]
	}
	return out
}

// DistAt returns the normalized spatial-temporal probability distribution
// of the object's location at time t given trajectory tr — the full
// STP(·, t, Tra) of Eq. 5:
//
//   - at an observed timestamp, the noise distribution of that observation;
//   - strictly between two observations, the Markov interpolation of
//     Eq. 4 (the denominator is constant over r and cancels under
//     normalization, the simplification Algorithm 1 exploits);
//   - outside the observation interval, the zero distribution.
func (e *Estimator) DistAt(tr model.Trajectory, t float64) (Dist, error) {
	if tr.Len() == 0 || t < tr.Start() || t > tr.End() {
		return Dist{}, nil
	}
	exact, before, after := tr.Bracket(t)
	if exact >= 0 {
		return e.ObservedDist(tr.Samples[exact].Loc), nil
	}
	if e.Trans == nil {
		return Dist{}, ErrNoTransition
	}
	prev := tr.Samples[before]
	next := tr.Samples[after]
	return e.BetweenDist(prev, next, e.ObservedDist(prev.Loc), e.ObservedDist(next.Loc), t)
}

// wsPool backs the allocating BetweenDist convenience wrapper; hot callers
// (core.Prepared) thread their own Workspace through BetweenDistWS instead.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// BetweenDist evaluates Eq. 4 for t strictly inside (prev.T, next.T),
// given the (normalized) noise distributions of the two bracketing
// observations. Callers that evaluate many timestamps against the same
// trajectory should cache those distributions (core.Prepared does); DistAt
// rebuilds them on every call.
//
// The returned distribution owns its slices. Callers scoring in a loop
// should use BetweenDistWS with a reusable Workspace to avoid the copy and
// the per-call allocations.
func (e *Estimator) BetweenDist(prev, next model.Sample, suppPrev, suppNext Dist, t float64) (Dist, error) {
	ws := wsPool.Get().(*Workspace)
	d, err := e.BetweenDistWS(ws, prev, next, suppPrev, suppNext, t)
	if err == nil && !d.IsZero() {
		d = Dist{
			Cells: append([]int(nil), d.Cells...),
			Probs: append([]float64(nil), d.Probs...),
		}
	}
	wsPool.Put(ws)
	return d, err
}

// BetweenDistWS is BetweenDist with caller-provided scratch: the returned
// Dist aliases ws and is valid only until the next call with the same
// workspace. When the estimator has a Radial transition, the evaluation
// memoizes transition masses per distinct lattice offset — the candidate and
// support cells live on a regular lattice, so dis(center(c), center(s))
// depends only on Δcol² + Δrow², and the two time intervals are fixed
// within one call — collapsing the |cand|·(|suppPrev|+|suppNext|) transition
// evaluations (sqrt + KDE lookup + speed-slack probes) to one per distinct
// squared offset.
func (e *Estimator) BetweenDistWS(ws *Workspace, prev, next model.Sample, suppPrev, suppNext Dist, t float64) (Dist, error) {
	if e.Trans == nil {
		return Dist{}, ErrNoTransition
	}
	cand := e.candidateCellsWS(ws, prev, next, t)
	ws.probs = ensureFloats(ws.probs, len(cand))
	probs := ws.probs
	d := Dist{Cells: cand, Probs: probs}

	if e.Radial != nil && e.betweenRadial(ws, d, prev, next, suppPrev, suppNext, t) {
		// memoized path done
	} else {
		e.betweenGeneric(ws, d, prev, next, suppPrev, suppNext, t)
	}
	d.sortedInPlace()
	d.normalize()
	return d, nil
}

// betweenRadial fills d.Probs via the lattice-offset memo tables. It
// reports false (leaving d untouched) when the offset range is too large to
// memoize densely; the caller then falls back to the generic path.
func (e *Estimator) betweenRadial(ws *Workspace, d Dist, prev, next model.Sample, suppPrev, suppNext Dist, t float64) bool {
	nx := e.Grid.Cols()
	cand := d.Cells

	// Lattice coordinates of the support cells (zero-weight cells dropped,
	// weights compacted alongside), and the bounding boxes that size the
	// memo tables.
	ws.spCols = ensureInts(ws.spCols, len(suppPrev.Cells))
	ws.spRows = ensureInts(ws.spRows, len(suppPrev.Cells))
	ws.spW = ensureFloats(ws.spW, len(suppPrev.Cells))
	np, spMinC, spMaxC, spMinR, spMaxR := compactLattice(ws.spCols, ws.spRows, ws.spW, suppPrev, nx)
	ws.snCols = ensureInts(ws.snCols, len(suppNext.Cells))
	ws.snRows = ensureInts(ws.snRows, len(suppNext.Cells))
	ws.snW = ensureFloats(ws.snW, len(suppNext.Cells))
	nn, snMinC, snMaxC, snMinR, snMaxR := compactLattice(ws.snCols, ws.snRows, ws.snW, suppNext, nx)

	cMinC, cMaxC, cMinR, cMaxR := latticeBounds(cand, nx)
	maxQ := maxSquaredOffset(cMinC, cMaxC, cMinR, cMaxR, spMinC, spMaxC, spMinR, spMaxR)
	if qb := maxSquaredOffset(cMinC, cMaxC, cMinR, cMaxR, snMinC, snMaxC, snMinR, snMaxR); qb > maxQ {
		maxQ = qb
	}
	if maxQ >= memoLimit {
		return false
	}
	ws.beginMemo(maxQ)

	cs := e.Grid.CellSize()
	dt1 := t - prev.T
	dt2 := next.T - t
	epoch := ws.epoch
	memoA, memoB := ws.memoA, ws.memoB
	// Slicing every per-support array to the compacted length lets the
	// compiler prove the hot-loop indexing in range (one bounds check per
	// support set instead of three per iteration).
	spCols, spRows, spW := ws.spCols[:np], ws.spRows[:np], ws.spW[:np]
	snCols, snRows, snW := ws.snCols[:nn], ws.snRows[:nn], ws.snW[:nn]
	probs := d.Probs

	for i, c := range cand {
		ccol := c % nx
		crow := c / nx
		// Σ_j f(r_j, ℓ_i) · P(r_c, t | r_j, t_i)
		sumA := e.accumRadial(memoA, epoch, spCols, spRows, spW, ccol, crow, cs, dt1)
		if sumA == 0 {
			probs[i] = 0
			continue
		}
		// Σ_k f(r_k, ℓ_{i+1}) · P(r_k, t_{i+1} | r_c, t)
		sumB := e.accumRadial(memoB, epoch, snCols, snRows, snW, ccol, crow, cs, dt2)
		probs[i] = sumA * sumB
	}
	return true
}

// accumRadial computes Σ_j w[j] · Radial(cs·√((ccol−cols[j])² + (crow−rows[j])²), dt)
// over one compacted support set, memoizing per squared lattice offset —
// the innermost gather-multiply-accumulate of every in-between evaluation.
//
// The loop is unrolled four wide with independent partial sums: a single
// accumulator serializes on floating-point add latency, while four chains
// keep the multiply-add units busy (memo lookups in steady state are pure
// loads of value-and-stamp entries sharing a cache line). rows and w are
// pinned to len(cols) up front so the unrolled body carries no bounds
// checks on the support arrays; the memo indexing is data-dependent
// (q ≤ maxQ sized the table) and keeps its check.
func (e *Estimator) accumRadial(memo []memoEntry, epoch uint32, cols, rows []int, w []float64, ccol, crow int, cs, dt float64) float64 {
	n := len(cols)
	if len(rows) < n || len(w) < n {
		return 0 // unreachable: callers compact all three to one length
	}
	rows = rows[:n]
	w = w[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= n; j += 4 {
		dc0, dr0 := ccol-cols[j], crow-rows[j]
		dc1, dr1 := ccol-cols[j+1], crow-rows[j+1]
		dc2, dr2 := ccol-cols[j+2], crow-rows[j+2]
		dc3, dr3 := ccol-cols[j+3], crow-rows[j+3]
		q0 := dc0*dc0 + dr0*dr0
		q1 := dc1*dc1 + dr1*dr1
		q2 := dc2*dc2 + dr2*dr2
		q3 := dc3*dc3 + dr3*dr3
		m0 := memo[q0]
		if m0.stamp != epoch {
			m0 = memoEntry{v: e.radialTransition(cs*math.Sqrt(float64(q0)), dt), stamp: epoch}
			memo[q0] = m0
		}
		m1 := memo[q1]
		if m1.stamp != epoch {
			m1 = memoEntry{v: e.radialTransition(cs*math.Sqrt(float64(q1)), dt), stamp: epoch}
			memo[q1] = m1
		}
		m2 := memo[q2]
		if m2.stamp != epoch {
			m2 = memoEntry{v: e.radialTransition(cs*math.Sqrt(float64(q2)), dt), stamp: epoch}
			memo[q2] = m2
		}
		m3 := memo[q3]
		if m3.stamp != epoch {
			m3 = memoEntry{v: e.radialTransition(cs*math.Sqrt(float64(q3)), dt), stamp: epoch}
			memo[q3] = m3
		}
		s0 += w[j] * m0.v
		s1 += w[j+1] * m1.v
		s2 += w[j+2] * m2.v
		s3 += w[j+3] * m3.v
	}
	for ; j < n; j++ {
		dc := ccol - cols[j]
		dr := crow - rows[j]
		q := dc*dc + dr*dr
		m := memo[q]
		if m.stamp != epoch {
			m = memoEntry{v: e.radialTransition(cs*math.Sqrt(float64(q)), dt), stamp: epoch}
			memo[q] = m
		}
		s0 += w[j] * m.v
	}
	return (s0 + s1) + (s2 + s3)
}

// betweenGeneric is the unmemoized evaluation for transition models that
// depend on absolute locations (frequency Markov, custom Trans): the
// original double loop of Eq. 4, with workspace-backed center scratch.
func (e *Estimator) betweenGeneric(ws *Workspace, d Dist, prev, next model.Sample, suppPrev, suppNext Dist, t float64) {
	ws.prevCenters = e.cellCentersWS(ws.prevCenters, suppPrev.Cells)
	ws.nextCenters = e.cellCentersWS(ws.nextCenters, suppNext.Cells)
	prevCenters := ws.prevCenters
	nextCenters := ws.nextCenters

	for i, c := range d.Cells {
		rc := e.Grid.Center(c)
		var sumA float64
		for j, pc := range prevCenters {
			if w := suppPrev.Probs[j]; w != 0 {
				sumA += w * e.transition(pc, prev.T, rc, t)
			}
		}
		if sumA == 0 {
			d.Probs[i] = 0
			continue
		}
		var sumB float64
		for k, nc := range nextCenters {
			if w := suppNext.Probs[k]; w != 0 {
				sumB += w * e.transition(rc, t, nc, next.T)
			}
		}
		d.Probs[i] = sumA * sumB
	}
}

// compactLattice decomposes the support's cells into lattice coordinates,
// dropping zero-weight cells so the hot loops of betweenRadial need no
// weight test, and compacting the weights alongside. It returns the number
// of cells kept and their bounding box.
func compactLattice(cols, rows []int, w []float64, supp Dist, nx int) (n, minC, maxC, minR, maxR int) {
	minC, minR = math.MaxInt, math.MaxInt
	maxC, maxR = math.MinInt, math.MinInt
	for i, c := range supp.Cells {
		p := supp.Probs[i]
		if p == 0 {
			continue
		}
		col := c % nx
		row := c / nx
		cols[n] = col
		rows[n] = row
		w[n] = p
		n++
		if col < minC {
			minC = col
		}
		if col > maxC {
			maxC = col
		}
		if row < minR {
			minR = row
		}
		if row > maxR {
			maxR = row
		}
	}
	return n, minC, maxC, minR, maxR
}

// latticeBounds returns the bounding box of cells in lattice coordinates.
func latticeBounds(cells []int, nx int) (minC, maxC, minR, maxR int) {
	minC, minR = math.MaxInt, math.MaxInt
	maxC, maxR = math.MinInt, math.MinInt
	for _, c := range cells {
		col := c % nx
		row := c / nx
		if col < minC {
			minC = col
		}
		if col > maxC {
			maxC = col
		}
		if row < minR {
			minR = row
		}
		if row > maxR {
			maxR = row
		}
	}
	return minC, maxC, minR, maxR
}

// maxSquaredOffset bounds Δcol² + Δrow² between any cell of box a and any
// cell of box b. Empty boxes (max < min) yield 0.
func maxSquaredOffset(aMinC, aMaxC, aMinR, aMaxR, bMinC, bMaxC, bMinR, bMaxR int) int {
	if aMaxC < aMinC || bMaxC < bMinC {
		return 0
	}
	dc := aMaxC - bMinC
	if v := bMaxC - aMinC; v > dc {
		dc = v
	}
	if dc < 0 {
		dc = 0
	}
	dr := aMaxR - bMinR
	if v := bMaxR - aMinR; v > dr {
		dr = v
	}
	if dr < 0 {
		dr = 0
	}
	return dc*dc + dr*dr
}

// transition evaluates the transition model, probing with SpeedSlack to
// bridge the grid's speed quantization. Probing is a rescue path: it only
// runs when the direct evaluation is zero, so objects with ordinary speed
// spread (whose kernel support covers the speed quantum) never pay for
// it, while near-constant-speed objects stay measurable.
func (e *Estimator) transition(a geo.Point, ta float64, b geo.Point, tb float64) float64 {
	best := e.Trans(a, ta, b, tb)
	slack := e.SpeedSlack
	if best > 0 || slack <= 0 {
		return best
	}
	d := a.Dist(b)
	var dir geo.Point
	if d > 0 {
		dir = b.Sub(a).Scale(1 / d)
	} else {
		dir = geo.Point{X: 1}
	}
	for _, dd := range [2]float64{d - slack, d + slack} {
		if dd < 0 {
			dd = 0
		}
		probe := a.Add(dir.Scale(dd))
		if v := e.Trans(a, ta, probe, tb); v > best {
			best = v
		}
	}
	return best
}

// radialTransition is the radial form of transition: the same
// SpeedSlack-probing rescue, expressed purely in distances.
func (e *Estimator) radialTransition(d, dt float64) float64 {
	best := e.Radial(d, dt)
	slack := e.SpeedSlack
	if best > 0 || slack <= 0 {
		return best
	}
	for _, dd := range [2]float64{d - slack, d + slack} {
		if dd < 0 {
			dd = 0
		}
		if v := e.Radial(dd, dt); v > best {
			best = v
		}
	}
	return best
}

// cellCentersWS materializes cell centers into a reusable buffer.
func (e *Estimator) cellCentersWS(dst []geo.Point, cells []int) []geo.Point {
	if cap(dst) < len(cells) {
		dst = make([]geo.Point, len(cells))
	}
	dst = dst[:len(cells)]
	for i, c := range cells {
		dst[i] = e.Grid.Center(c)
	}
	return dst
}

// candidateCellsWS selects the cells that can carry non-negligible mass at
// time t between observations prev and next, into ws.cells. In Exact mode
// this is all of R. Otherwise the object must be reachable from *both*
// noisy observations, so the candidates are the cells within
//
//	noiseRadius + MaxSpeed·(t − t_prev)   of prev.Loc, and
//	noiseRadius + MaxSpeed·(t_next − t)   of next.Loc.
//
// With no speed bound the radii degrade to the noise support around each
// observation plus the inter-observation gap, which always connects the
// two disks.
func (e *Estimator) candidateCellsWS(ws *Workspace, prev, next model.Sample, t float64) []int {
	if e.Exact {
		n := e.Grid.N()
		ws.cells = ensureInts(ws.cells, n)
		for i := range ws.cells {
			ws.cells[i] = i
		}
		return ws.cells
	}
	r := e.reachAt(prev, next, t)
	// Enumerate within the smaller disk, filter by the other.
	cand := e.Grid.CellsWithin(ws.cells[:0], r.aLoc, r.aR)
	ws.cells = cand
	out := cand[:0]
	// Filter by squared distance: CellsWithin enumerates cells the same way,
	// and skipping the sqrt per cell keeps this scan off the hot-loop
	// profile (the membership predicate d² ≤ r² is sqrt-free and exact for
	// the non-negative radii in play).
	bRR := r.bR * r.bR
	for _, c := range cand {
		if e.Grid.Center(c).Dist2(r.bLoc) <= bRR {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		// The disks do not intersect (observations inconsistent with the
		// speed bound). Fall back to the noise support around the
		// time-interpolated position so the distribution stays usable.
		out = e.Grid.CellsWithin(out, r.mid, r.nr)
		ws.cells = out
	}
	if e.MaxCandidateCells > 0 && len(out) > e.MaxCandidateCells {
		out = nearestCellsWS(ws, e.Grid, out, r.mid, e.MaxCandidateCells)
	}
	return out
}

// reach is the geometry candidateCellsWS selects from at one in-between
// time: the two reach disks around the bracketing observations, ordered so
// that disk a (the smaller) is the enumerated one, and the noise disk
// around the time-interpolated position that serves as the fallback when
// the reach disks share no cell center.
type reach struct {
	aLoc, bLoc, mid geo.Point
	aR, bR, nr      float64
}

// reachAt computes the reach geometry at time t strictly between prev and
// next. candidateCellsWS and MayMeet both read it, so the cells the test
// accepts follow the radii the interpolation enumerates by construction.
func (e *Estimator) reachAt(prev, next model.Sample, t float64) reach {
	nr := e.Noise.SupportRadius()
	if nr <= 0 {
		// Point-mass noise still needs at least one-cell support for the
		// in-between location; use half a cell so the candidate disks are
		// non-degenerate.
		nr = e.Grid.CellSize() / 2
	}
	var rPrev, rNext float64
	if e.MaxSpeed > 0 {
		rPrev = nr + e.MaxSpeed*(t-prev.T)
		rNext = nr + e.MaxSpeed*(next.T-t)
	} else {
		gap := prev.Loc.Dist(next.Loc)
		rPrev = nr + gap
		rNext = nr + gap
	}
	r := reach{aLoc: prev.Loc, aR: rPrev, bLoc: next.Loc, bR: rNext, nr: nr}
	if r.bR < r.aR {
		r.aLoc, r.aR, r.bLoc, r.bR = r.bLoc, r.bR, r.aLoc, r.aR
	}
	f := (t - prev.T) / (next.T - prev.T)
	r.mid = prev.Loc.Lerp(next.Loc, f)
	return r
}

// meetPad widens MayMeet's disks by this fraction of a cell, so a center
// that candidateCellsWS admits at the rim is never rejected because the two
// distance computations round differently. It stays orders of magnitude
// above that rounding while coordinates and radii are below 10⁶ cells, and
// far below one cell.
const meetPad = 1e-6

// MayMeet reports whether any of cells may be a candidate cell of the
// in-between distribution that BetweenDistWS computes at t, strictly
// between prev and next. A false answer is a proof: a cell outside the
// candidate set carries no mass, so the dot product of that distribution
// with any distribution supported on cells is exactly 0.0 and the
// interpolation can be skipped. The test may answer true when unsure, and
// accepts every cell candidateCellsWS can return:
//
//   - a cell whose center lies in both reach disks;
//   - the cell containing the enumerated disk's center, which CellsWithin
//     returns when that disk holds no cell center;
//   - the fallback cells around the time-interpolated position, whether or
//     not the reach disks intersect.
//
// The MaxCandidateCells cap only removes candidates, so it is ignored.
// Exact estimators (whose candidates are all of R) and estimators without
// a transition model (BetweenDistWS then reports ErrNoTransition) always
// answer true. cells need not be sorted; sorted input, the Dist invariant,
// costs one division per grid row instead of one per cell.
func (e *Estimator) MayMeet(prev, next model.Sample, t float64, cells []int) bool {
	if e.Exact || e.Trans == nil {
		return true
	}
	r := e.reachAt(prev, next, t)
	g := e.Grid
	cellA, cellMid := g.Cell(r.aLoc), g.Cell(r.mid)
	cs := g.CellSize()
	pad := meetPad * cs
	aRR := (r.aR + pad) * (r.aR + pad)
	bRR := (r.bR + pad) * (r.bR + pad)
	mRR := (r.nr + pad) * (r.nr + pad)
	origin := g.Bounds().Min
	nx := g.Cols()
	// [rowLo, rowHi) is the index range of the current cell's grid row;
	// rowIn is false when no center of that row can lie in the accepted
	// region, so its cells are skipped without distance tests.
	rowLo, rowHi := 0, 0
	rowIn := false
	var dyA2, dyB2, dyM2 float64
	for _, c := range cells {
		if c == cellA || c == cellMid {
			return true
		}
		if c < rowLo || c >= rowHi {
			row := c / nx
			rowLo, rowHi = row*nx, row*nx+nx
			cy := origin.Y + (float64(row)+0.5)*cs
			dyA, dyB, dyM := cy-r.aLoc.Y, cy-r.bLoc.Y, cy-r.mid.Y
			dyA2, dyB2, dyM2 = dyA*dyA, dyB*dyB, dyM*dyM
			rowIn = (dyA2 <= aRR && dyB2 <= bRR) || dyM2 <= mRR
		}
		if !rowIn {
			continue
		}
		cx := origin.X + (float64(c-rowLo)+0.5)*cs
		dxA, dxB, dxM := cx-r.aLoc.X, cx-r.bLoc.X, cx-r.mid.X
		if (dxA*dxA+dyA2 <= aRR && dxB*dxB+dyB2 <= bRR) || dxM*dxM+dyM2 <= mRR {
			return true
		}
	}
	return false
}

// nearestCellsWS keeps the k cells of cand whose centers are nearest to p,
// in ascending index order, truncating cand in place. Selection is a
// deterministic O(n) partial partition on (squared distance, cell) rather
// than a full sort — squaring preserves the distance order and skips a
// sqrt per candidate; distance ties break toward the lower cell index so
// repeated runs keep identical supports.
func nearestCellsWS(ws *Workspace, g *geo.Grid, cand []int, p geo.Point, k int) []int {
	ws.dists = ensureFloats(ws.dists, len(cand))
	dists := ws.dists
	// Center(c).Dist2(p), with the center expressed directly in lattice
	// coordinates: c's center is origin + (col+0.5, row+0.5)·cellSize, so the
	// deltas are affine in (col, row) and the per-cell work is one divmod and
	// two multiply-adds — no method calls inside the scan.
	cs := g.CellSize()
	nx := g.Cols()
	ox := g.Bounds().Min.X + 0.5*cs - p.X
	oy := g.Bounds().Min.Y + 0.5*cs - p.Y
	for i, c := range cand {
		row := c / nx
		col := c - row*nx
		dx := ox + float64(col)*cs
		dy := oy + float64(row)*cs
		dists[i] = dx*dx + dy*dy
	}
	quickselectByDist(cand, dists, k)
	out := cand[:k]
	sort.Ints(out)
	return out
}

// quickselectByDist partially partitions the parallel slices (cells, dists)
// so that the k entries with the smallest (dist, cell) order come first.
// Median-of-three pivoting keeps the expected cost linear and deterministic
// for a given input.
func quickselectByDist(cells []int, dists []float64, k int) {
	lo, hi := 0, len(cells)-1
	for lo < hi {
		// Median-of-three pivot of (dist, cell), moved to lo.
		mid := lo + (hi-lo)/2
		if lessDist(dists[mid], cells[mid], dists[lo], cells[lo]) {
			swapDist(cells, dists, lo, mid)
		}
		if lessDist(dists[hi], cells[hi], dists[lo], cells[lo]) {
			swapDist(cells, dists, lo, hi)
		}
		if lessDist(dists[mid], cells[mid], dists[hi], cells[hi]) {
			swapDist(cells, dists, mid, hi)
		}
		pd, pc := dists[hi], cells[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if lessDist(dists[j], cells[j], pd, pc) {
				swapDist(cells, dists, i, j)
				i++
			}
		}
		swapDist(cells, dists, i, hi)
		switch {
		case i == k || i == k-1:
			return
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
}

func lessDist(d1 float64, c1 int, d2 float64, c2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return c1 < c2
}

func swapDist(cells []int, dists []float64, i, j int) {
	cells[i], cells[j] = cells[j], cells[i]
	dists[i], dists[j] = dists[j], dists[i]
}

// STP returns the scalar spatial-temporal probability STP(r, t, Tra) of
// Eq. 5 for a single cell. It is a convenience wrapper over DistAt; callers
// evaluating many cells at one timestamp should use DistAt directly.
func (e *Estimator) STP(tr model.Trajectory, cell int, t float64) (float64, error) {
	d, err := e.DistAt(tr, t)
	if err != nil {
		return 0, err
	}
	return d.Prob(cell), nil
}
