package bench

import (
	"fmt"
	"math"
	"sort"
)

// Ranked is one top-k entry.
type Ranked struct {
	ID    string
	Score float64
}

// CompareTopK checks a served top-k list against the reference. Scores
// must agree position by position within tol. Runs of tied scores
// (consecutive reference scores within tol) may come back in any order,
// so each tie group is compared as a set of IDs — except the group cut at
// k, whose members beyond the cut are arbitrary, which is compared by
// score only. want may carry one entry past k: it only tells whether the
// last group is cut.
func CompareTopK(got, want []Ranked, k int, tol float64) error {
	cut := false
	if len(want) > k {
		cut = math.Abs(want[k].Score-want[k-1].Score) <= tol
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("served %d matches, reference has %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > tol {
			return fmt.Errorf("rank %d: served %s %.17g, reference %s %.17g", i+1, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	for lo := 0; lo < len(want); {
		hi := lo + 1
		for hi < len(want) && math.Abs(want[hi].Score-want[hi-1].Score) <= tol {
			hi++
		}
		if !(cut && hi == len(want)) {
			g, w := ids(got[lo:hi]), ids(want[lo:hi])
			for i := range g {
				if g[i] != w[i] {
					return fmt.Errorf("ranks %d-%d: served %v, reference %v", lo+1, hi, g, w)
				}
			}
		}
		lo = hi
	}
	return nil
}

func ids(rs []Ranked) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	sort.Strings(out)
	return out
}

// HandlerView mirrors GET /v1/topk's post-processing of the engine's k+1
// results: drop the query itself and non-finite scores, keep at most
// limit entries.
func HandlerView(matches []Ranked, self string, limit int) []Ranked {
	out := make([]Ranked, 0, limit)
	for _, m := range matches {
		if len(out) == limit {
			break
		}
		if m.ID == self || math.IsInf(m.Score, 0) || math.IsNaN(m.Score) {
			continue
		}
		out = append(out, m)
	}
	return out
}
