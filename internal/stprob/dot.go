package stprob

// This file holds the sparse dot-product kernel: the innermost arithmetic
// of every profiled pair score (one Dot per shared bucket) and of the
// co-location probability of Eq. 9. It is written for bounds-check
// elimination: the prob arrays are pinned to the cell arrays' lengths up
// front, so inside the merge the cursor comparisons that guard the loop
// also prove every index in range (`go build -gcflags=-d=ssa/check_bce`
// reports no checks in the loop bodies; scripts/check_bce.sh gates this).
//
// The cursor advance is written as two independent `<=` conditions instead
// of a three-way switch: each compiles to a flag-setting compare the
// branch predictor handles independently, and on the frequent cell-match
// step both advance without a second branch round.

// Dot returns Σ_r d[r]·e[r], the co-location probability of two normalized
// location distributions at one timestamp (Eq. 9). Both distributions must
// have their cells sorted ascending, which every constructor in this
// package guarantees.
func (d Dist) Dot(e Dist) float64 {
	dc, ec := d.Cells, e.Cells
	if len(d.Probs) < len(dc) || len(e.Probs) < len(ec) {
		return 0 // unreachable: Dist invariants pair every cell with a prob
	}
	dp := d.Probs[:len(dc)]
	ep := e.Probs[:len(ec)]
	var s float64
	i, j := 0, 0
	for i < len(dc) && j < len(ec) {
		a, b := dc[i], ec[j]
		if a == b {
			s += dp[i] * ep[j]
		}
		if a <= b {
			i++
		}
		if b <= a {
			j++
		}
	}
	return s
}
