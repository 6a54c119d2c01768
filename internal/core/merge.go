package core

import "github.com/stslib/sts/internal/stprob"

// This file holds the bucket-merge kernel of profiled scoring: the sorted
// intersection of two profiles' bucket axes, dispatching one sparse dot
// product per shared bucket. Like stprob's dot kernel, it is shaped for
// bounds-check elimination — the weight and distribution arrays are pinned
// to the bucket arrays' lengths up front, so the merge cursors' loop guards
// prove every index in range (scripts/check_bce.sh gates this) — and the
// cursor advance uses the branch-lean two-condition form instead of a
// three-way switch.

// mergeDots merges two profiles: Σ over shared buckets of
// (wa+wb)·⟨da, db⟩, skipping zero-weight buckets.
func mergeDots(ab, bb []int64, aw, bw []int32, ad, bd []stprob.Dist) float64 {
	if len(aw) < len(ab) || len(ad) < len(ab) || len(bw) < len(bb) || len(bd) < len(bb) {
		return 0 // unreachable: profile invariants keep the axes aligned
	}
	aw = aw[:len(ab)]
	ad = ad[:len(ab)]
	bw = bw[:len(bb)]
	bd = bd[:len(bb)]
	var total float64
	i, j := 0, 0
	for i < len(ab) && j < len(bb) {
		x, y := ab[i], bb[j]
		if x == y {
			if w := aw[i] + bw[j]; w > 0 {
				total += float64(w) * ad[i].Dot(bd[j])
			}
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return total
}
