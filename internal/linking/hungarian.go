package linking

import (
	"context"
	"fmt"
	"math"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/model"
)

// OptimalLink links two trajectory sets one-to-one maximizing the *total*
// similarity of the assignment, using the Hungarian algorithm (Kuhn–
// Munkres, in the O(n³) Jonker-style potential formulation). Compared to
// GreedyLink it trades speed for global optimality: a greedy assignment
// can lock a trajectory to its locally best partner and force a chain of
// bad links downstream; the optimal assignment cannot.
//
// Pairs rejected by the threshold or the feasibility pre-filter are given
// −∞ utility and are dropped from the result if chosen anyway (which only
// happens when a row has no feasible partner at all).
func OptimalLink(d1, d2 model.Dataset, scorer eval.Scorer, opts Options) ([]Link, error) {
	return OptimalLinkContext(context.Background(), d1, d2, scorer, opts)
}

// OptimalLinkContext is OptimalLink with cancellation: scoring runs on the
// engine executor and aborts promptly when ctx is cancelled. (The O(n·m²)
// assignment itself is not interruptible; it is cheap next to scoring.)
func OptimalLinkContext(ctx context.Context, d1, d2 model.Dataset, scorer eval.Scorer, opts Options) ([]Link, error) {
	if len(d1) == 0 || len(d2) == 0 {
		return nil, ErrEmptyInput
	}
	// The FTL mask is built before scoring, so infeasible pairs are never
	// scored; they come back −Inf, as do pairs floored by a positive
	// MinScore, and the veto below drops both.
	mask, err := feasibilityMask(ctx, d1, d2, opts)
	if err != nil {
		return nil, fmt.Errorf("linking: %w", err)
	}
	scores, err := engine.ScoreMatrix(ctx, scorer, d1, d2, mask, scoreFloor(opts), opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("linking: %w", err)
	}
	// Build the utility matrix with vetoes applied.
	const veto = math.MaxFloat64 / 4
	n, m := len(d1), len(d2)
	util := make([][]float64, n)
	for i := range util {
		util[i] = make([]float64, m)
		for j := range util[i] {
			if s := scores[i][j]; s >= opts.MinScore && !math.IsInf(s, -1) {
				util[i][j] = s
			} else {
				util[i][j] = -veto
			}
		}
	}
	assign := hungarianMax(util)
	var links []Link
	for i, j := range assign {
		if j < 0 || util[i][j] <= -veto/2 {
			continue
		}
		links = append(links, Link{I: i, J: j, Score: scores[i][j]})
	}
	// Sort by descending score for parity with GreedyLink's contract.
	for a := 1; a < len(links); a++ {
		for b := a; b > 0 && links[b].Score > links[b-1].Score; b-- {
			links[b], links[b-1] = links[b-1], links[b]
		}
	}
	return links, nil
}

// hungarianMax solves the rectangular assignment problem maximizing total
// utility. It returns, for each row, the assigned column (or -1 when rows
// outnumber columns and the row stays unassigned). Implementation: the
// standard O(n·m²) shortest-augmenting-path algorithm with row/column
// potentials, run on costs = −utility.
func hungarianMax(util [][]float64) []int {
	n := len(util)
	if n == 0 {
		return nil
	}
	m := len(util[0])
	transposed := false
	if n > m {
		// The algorithm below assumes rows ≤ columns; transpose if not.
		t := make([][]float64, m)
		for j := range t {
			t[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				t[j][i] = util[i][j]
			}
		}
		util, n, m = t, m, len(t[0])
		transposed = true
	}

	cost := func(i, j int) float64 { return -util[i][j] }

	// Potentials and matching, 1-indexed internally per the classic
	// formulation; p[j] = row matched to column j.
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1)
	way := make([]int, m+1)
	for i := range p {
		p[i] = 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	rowOf := make([]int, n) // rowOf[i] = column assigned to row i
	for i := range rowOf {
		rowOf[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			rowOf[p[j]-1] = j - 1
		}
	}
	if !transposed {
		return rowOf
	}
	// Undo the transpose: rowOf currently maps columns → rows.
	out := make([]int, m)
	for i := range out {
		out[i] = -1
	}
	for col, row := range rowOf {
		if row >= 0 {
			out[row] = col
		}
	}
	return out
}
