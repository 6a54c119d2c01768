package linking

import (
	"math"
	"math/rand"
	"testing"

	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

func TestHungarianMaxSimpleSquare(t *testing.T) {
	// Utility matrix with an obvious optimum on the anti-diagonal.
	util := [][]float64{
		{1, 10},
		{10, 1},
	}
	got := hungarianMax(util)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment %v want [1 0]", got)
	}
}

func TestHungarianMaxBeatsGreedyTrap(t *testing.T) {
	// Greedy takes (0,0)=9 and is forced into (1,1)=0 (total 9); the
	// optimum is (0,1)+(1,0) = 8+8 = 16.
	util := [][]float64{
		{9, 8},
		{8, 0},
	}
	got := hungarianMax(util)
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("assignment %v want [1 0]", got)
	}
}

func TestHungarianMaxRectangular(t *testing.T) {
	// More rows than columns: one row stays unassigned.
	util := [][]float64{
		{5, 1},
		{6, 2},
		{7, 8},
	}
	got := hungarianMax(util)
	assignedCols := map[int]bool{}
	count := 0
	for _, j := range got {
		if j >= 0 {
			if assignedCols[j] {
				t.Fatalf("column %d assigned twice: %v", j, got)
			}
			assignedCols[j] = true
			count++
		}
	}
	if count != 2 {
		t.Fatalf("assigned %d rows want 2: %v", count, got)
	}
	// Optimal total: rows 1 and 2 on columns 0 and 1 → 6+8 = 14.
	total := 0.0
	for i, j := range got {
		if j >= 0 {
			total += util[i][j]
		}
	}
	if total != 14 {
		t.Errorf("total utility %v want 14 (%v)", total, got)
	}
}

// bruteForceBest enumerates all assignments of rows to distinct columns
// and returns the maximum total utility.
func bruteForceBest(util [][]float64) float64 {
	n, m := len(util), len(util[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(-1)
	var rec func(row int, used []bool, total float64, assigned int)
	rec = func(row int, used []bool, total float64, assigned int) {
		want := n
		if m < n {
			want = m
		}
		if row == n {
			if assigned == want && total > best {
				best = total
			}
			return
		}
		// Skip this row (only allowed when rows outnumber columns).
		if n > m {
			rec(row+1, used, total, assigned)
		}
		for j := 0; j < m; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			rec(row+1, used, total+util[row][j], assigned+1)
			used[j] = false
		}
	}
	rec(0, make([]bool, m), 0, 0)
	return best
}

func TestHungarianMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		util := make([][]float64, n)
		for i := range util {
			util[i] = make([]float64, m)
			for j := range util[i] {
				util[i][j] = math.Round(rng.Float64()*100) / 10
			}
		}
		got := hungarianMax(util)
		var total float64
		seen := map[int]bool{}
		for i, j := range got {
			if j < 0 {
				continue
			}
			if seen[j] {
				t.Fatalf("trial %d: column %d reused (%v)", trial, j, got)
			}
			seen[j] = true
			total += util[i][j]
		}
		want := bruteForceBest(util)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): hungarian %v vs brute force %v (%v)", trial, n, m, total, want, util)
		}
	}
}

func TestOptimalLinkBeatsGreedyOnTrap(t *testing.T) {
	// Construct trajectories whose tag similarities form the greedy trap
	// above: greedy total 9, optimal total 16.
	mk := func(id string, y float64) model.Trajectory {
		return walkAt(id, geo.Point{Y: y}, 1, 0, 10)
	}
	d1 := model.Dataset{mk("r0", 0), mk("r1", 1)}
	d2 := model.Dataset{mk("c0", 10), mk("c1", 20)}
	scorer := eval.FuncScorer{N: "trap", F: func(a, b model.Trajectory) (float64, error) {
		key := [2]float64{a.Samples[0].Loc.Y, b.Samples[0].Loc.Y}
		switch key {
		case [2]float64{0, 10}:
			return 9, nil
		case [2]float64{0, 20}:
			return 8, nil
		case [2]float64{1, 10}:
			return 8, nil
		default:
			return 0, nil
		}
	}}
	opts := Options{MinScore: math.Inf(-1), Workers: 1}
	greedy, err := GreedyLink(d1, d2, scorer, opts)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := OptimalLink(d1, d2, scorer, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(ls []Link) (s float64) {
		for _, l := range ls {
			s += l.Score
		}
		return s
	}
	if sum(optimal) <= sum(greedy) {
		t.Errorf("optimal total %v not above greedy total %v", sum(optimal), sum(greedy))
	}
	if sum(optimal) != 16 {
		t.Errorf("optimal total %v want 16", sum(optimal))
	}
}

func TestOptimalLinkRespectsVetoes(t *testing.T) {
	mk := func(id string, y float64) model.Trajectory {
		return walkAt(id, geo.Point{Y: y}, 1, 0, 10)
	}
	d1 := model.Dataset{mk("a", 0)}
	d2 := model.Dataset{mk("b", 100)}
	links, err := OptimalLink(d1, d2, tagScorer, Options{MinScore: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("vetoed pair linked: %v", links)
	}
	if _, err := OptimalLink(nil, d2, tagScorer, Options{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestOptimalLinkDoesNotScoreInfeasiblePairs(t *testing.T) {
	// The FTL mask is built before scoring: the pair 1 km away fails the
	// 10 m/s feasibility check and must never reach the scorer.
	d1 := model.Dataset{walkAt("a", geo.Point{Y: 0}, 0, 0, 10)}
	far := model.Trajectory{ID: "far", Samples: []model.Sample{
		{Loc: geo.Point{X: 1000}, T: 1},
		{Loc: geo.Point{X: 1000}, T: 11},
	}}
	near := walkAt("near", geo.Point{Y: 1}, 0, 5, 15)
	d2 := model.Dataset{far, near}
	scored := 0
	counter := eval.FuncScorer{N: "count", F: func(a, b model.Trajectory) (float64, error) {
		scored++
		return 1, nil
	}}
	links, err := OptimalLink(d1, d2, counter, Options{MaxSpeed: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scored != 1 {
		t.Errorf("scored %d pairs, want 1 (the feasible one)", scored)
	}
	if len(links) != 1 || links[0].J != 1 {
		t.Errorf("links=%v want the near pair", links)
	}
}
