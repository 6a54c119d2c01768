package stprob

import "github.com/stslib/sts/internal/geo"

// RadialTransition is the radially symmetric form of a transition model:
// a transition probability that depends only on the separation distance
// between the two locations and on the time interval,
//
//	P(b, tb | a, ta) = f(dis(a, b), |ta − tb|).
//
// The KDE speed models of Eq. 7 and the Brownian random walk are radial;
// the frequency-based Markov transitions are not (they depend on the
// absolute cells). A radial transition unlocks the lattice-offset
// memoization of BetweenDist: cell centers live on a regular lattice, so
// the distance between two centers depends only on the integer offset
// (Δcol, Δrow) — in fact only on Δcol² + Δrow² — and within one
// interpolation the two time intervals are fixed, collapsing the
// candidate×support transition evaluations to one per distinct offset.
type RadialTransition func(d, dt float64) float64

// TransitionSpec bundles a transition model with its optional radial fast
// path and the speed bound used for support truncation.
type TransitionSpec struct {
	// Trans is the transition probability (required for interpolation).
	Trans Transition
	// Radial, when non-nil, must agree with Trans — same probability, in
	// the radial form — and enables the memoized evaluation.
	Radial RadialTransition
	// MaxSpeed bounds the object's plausible speed in m/s (0 = unknown).
	MaxSpeed float64
	// MemoryBytes, when non-nil, reports the resident bytes of the state
	// the model holds for this one trajectory: a personalized speed
	// model's sorted speeds and, once its first interpolation has built
	// it, its mass table. Models shared across trajectories leave it nil.
	// It must be safe to call concurrently with the model's use.
	MemoryBytes func() int
}

// memoLimit caps the size of the dense offset-memo tables (entries). With
// the squared lattice offset as the key, the tables need maxΔcol² + maxΔrow²
// entries; pathological geometries (exact mode over a multi-thousand-cell-
// wide grid) would blow that up, so beyond the limit BetweenDist falls back
// to the unmemoized evaluation rather than allocate hundreds of megabytes.
const memoLimit = 1 << 22

// Workspace holds the reusable scratch buffers of one in-between
// distribution evaluation, so steady-state scoring performs no heap
// allocations. The zero value is ready to use. A Workspace is not safe for
// concurrent use; callers thread one per goroutine (core pools them).
//
// Dist values returned by the *WS estimator methods alias the workspace and
// remain valid only until the next call with the same workspace.
type Workspace struct {
	// cells/probs back the returned Dist.
	cells []int
	probs []float64
	// dists is the distance scratch of the nearest-cells truncation.
	dists []float64
	// spCols/spRows and snCols/snRows are the lattice coordinates of the
	// prev- and next-side support cells, compacted to nonzero weights with
	// spW/snW carrying the weights at matching indexes.
	spCols, spRows []int
	snCols, snRows []int
	spW, snW       []float64
	// centers is the center scratch of the generic (non-radial) path.
	prevCenters, nextCenters []geo.Point
	// memoA/memoB are the offset-keyed transition memo tables for the
	// prev→candidate and candidate→next time intervals, epoch-stamped so
	// clearing between calls is O(1).
	memoA, memoB []memoEntry
	epoch        uint32
}

// memoEntry is one slot of an offset-keyed transition memo table. Value and
// stamp live side by side so the hot-loop lookup (which always reads both)
// touches one cache line instead of gathering from two parallel arrays.
type memoEntry struct {
	v     float64
	stamp uint32
}

// nextPow2 rounds n up to the next power of two, so scratch capacities form
// a small set of stable sizes: a workload alternating between a shrinking
// and a regrowing support would otherwise reallocate on every regrow
// (cap(s) < n each time the larger size comes back).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ensureInts grows an int scratch slice to length n.
func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, nextPow2(n))
	}
	return s[:n]
}

// ensureFloats grows a float scratch slice to length n.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, nextPow2(n))
	}
	return s[:n]
}

// beginMemo prepares both memo tables for a fresh evaluation with squared
// offsets up to maxQ, reusing the previous allocation when large enough and
// invalidating old entries in O(1) via the epoch stamp.
func (ws *Workspace) beginMemo(maxQ int) {
	n := maxQ + 1
	if len(ws.memoA) < n {
		n = nextPow2(n)
		ws.memoA = make([]memoEntry, n)
		ws.memoB = make([]memoEntry, n)
		ws.epoch = 0
	}
	ws.epoch++
	if ws.epoch == 0 { // uint32 wraparound: stamps are stale, wipe them
		clear(ws.memoA)
		clear(ws.memoB)
		ws.epoch = 1
	}
}
