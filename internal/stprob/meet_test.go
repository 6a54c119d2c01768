package stprob

import (
	"math/rand"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// meetCase is one randomized MayMeet query: an estimator, an in-between
// time t strictly inside (prev.T, next.T), and the partner cells to test.
type meetCase struct {
	e          *Estimator
	prev, next model.Sample
	t          float64
	cells      []int
}

// newMeetCase derives a query from seed. mode picks the regime, so seed
// corpora can pin each one:
//
//	mode%3      noise: Gaussian, Uniform, Point
//	mode/3%3    speed bound: none (MaxSpeed 0), far below the gap (disjoint
//	            reach disks, the fallback), random
//	mode/9%2    MaxCandidateCells and MaxSupportCells caps on
//	mode/18%4   0: Exact mode on a small grid
//
// Observations range past the grid bounds so edge clamping is exercised,
// and the partner cells are an observed noise support near the
// interpolated position, or arbitrary cells.
func newMeetCase(seed int64, mode uint8) meetCase {
	r := rand.New(rand.NewSource(seed))
	cs := []float64{1, 2.5, 5, 10}[r.Intn(4)]
	exact := mode/18%4 == 0
	w, h := cs*(10+r.Float64()*40), cs*(10+r.Float64()*40)
	if exact {
		w, h = cs*(5+r.Float64()*10), cs*(5+r.Float64()*10)
	}
	g, err := geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: w, Y: h}), cs)
	if err != nil {
		panic(err)
	}
	pt := func() geo.Point {
		return geo.Point{X: (r.Float64()*1.6 - 0.3) * w, Y: (r.Float64()*1.6 - 0.3) * h}
	}
	var noise NoiseModel
	switch mode % 3 {
	case 0:
		noise = GaussianNoise{Sigma: cs * (0.1 + r.Float64()*2.5), TruncSigmas: float64(r.Intn(5))}
	case 1:
		noise = UniformNoise{Radius: r.Float64() * 3 * cs}
	default:
		noise = PointNoise{}
	}
	prev := model.Sample{T: r.Float64() * 100, Loc: pt()}
	next := model.Sample{T: prev.T + 0.5 + r.Float64()*120, Loc: pt()}
	if r.Intn(3) == 0 {
		// A short hop: reach disks that may hold no cell center.
		next.Loc = prev.Loc.Add(geo.Point{X: r.Float64() * cs, Y: r.Float64() * cs})
	}
	gap := prev.Loc.Dist(next.Loc)
	var maxSpeed float64
	switch mode / 3 % 3 {
	case 1:
		maxSpeed = 0.05 * gap / (next.T - prev.T)
	case 2:
		maxSpeed = r.Float64() * 3 * gap / (next.T - prev.T)
	}
	e := &Estimator{
		Grid:       g,
		Noise:      noise,
		Trans:      BrownianTransition(0.5 + r.Float64()*4),
		Radial:     BrownianRadial(0.5 + r.Float64()*4),
		MaxSpeed:   maxSpeed,
		Exact:      exact,
		SpeedSlack: r.Float64() * cs,
	}
	if mode/9%2 == 1 {
		e.MaxCandidateCells = 1 + r.Intn(20)
		e.MaxSupportCells = 1 + r.Intn(20)
	}
	// Keep t off the endpoints: MayMeet is only asked strictly between.
	f := 0.001 + 0.998*r.Float64()
	c := meetCase{e: e, prev: prev, next: next, t: prev.T + f*(next.T-prev.T)}
	if r.Intn(4) == 0 {
		for n := r.Intn(30); n > 0; n-- {
			c.cells = append(c.cells, r.Intn(g.N()))
		}
	} else {
		// Offsets concentrate near the interpolated position (the squared
		// draw) so both answers stay frequent in every regime.
		mid := prev.Loc.Lerp(next.Loc, f)
		u := r.Float64()
		spread := u * u * 3 * (gap + 10*cs)
		obs := mid.Add(geo.Point{X: (r.Float64()*2 - 1) * spread, Y: (r.Float64()*2 - 1) * spread})
		c.cells = e.ObservedDist(obs).Cells
	}
	return c
}

// checkMeetSound asserts the MayMeet contract on one case: every cell the
// uncapped candidate selection returns is accepted on its own (so no set
// holding a candidate is ever rejected), and a rejected set shares no cell
// with BetweenDistWS's candidates. It reports MayMeet's answer.
func checkMeetSound(t *testing.T, c meetCase) bool {
	t.Helper()
	uncapped := *c.e
	uncapped.MaxCandidateCells = 0
	ws := new(Workspace)
	for _, cell := range uncapped.candidateCellsWS(ws, c.prev, c.next, c.t) {
		if !c.e.MayMeet(c.prev, c.next, c.t, []int{cell}) {
			t.Fatalf("candidate cell %d rejected (prev %+v next %+v t %v, noise %+v, MaxSpeed %v)",
				cell, c.prev, c.next, c.t, c.e.Noise, c.e.MaxSpeed)
		}
	}
	meet := c.e.MayMeet(c.prev, c.next, c.t, c.cells)
	if meet {
		return true
	}
	inSet := make(map[int]bool, len(c.cells))
	for _, cell := range c.cells {
		inSet[cell] = true
	}
	cand := c.e.candidateCellsWS(ws, c.prev, c.next, c.t)
	for _, cell := range cand {
		if inSet[cell] {
			t.Fatalf("MayMeet rejected a set sharing candidate cell %d", cell)
		}
	}
	d, err := c.e.BetweenDistWS(ws, c.prev, c.next,
		c.e.ObservedDist(c.prev.Loc), c.e.ObservedDist(c.next.Loc), c.t)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range d.Cells {
		if inSet[cell] {
			t.Fatalf("MayMeet rejected a set sharing BetweenDistWS cell %d", cell)
		}
	}
	return false
}

// TestMayMeetSoundAcrossRegimes sweeps every regime of newMeetCase and
// requires both answers to occur, so the soundness checks are not vacuous.
func TestMayMeetSoundAcrossRegimes(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 25
	}
	for mode := uint8(0); mode < 72; mode++ {
		var met, missed int
		for seed := int64(0); seed < int64(n); seed++ {
			if checkMeetSound(t, newMeetCase(seed*131+int64(mode), mode)) {
				met++
			} else {
				missed++
			}
		}
		exact := mode/18%4 == 0
		if missed == 0 && !exact {
			t.Errorf("mode %d: MayMeet never answered false over %d cases", mode, n)
		}
		if exact && missed != 0 {
			t.Errorf("mode %d: Exact estimator answered false %d times", mode, missed)
		}
		if met == 0 {
			t.Errorf("mode %d: MayMeet never answered true over %d cases", mode, n)
		}
	}
}

// TestMayMeetAcceptanceRules pins each way a cell becomes a candidate, on
// geometry where some candidate is admitted by that rule alone: the center
// lies in both reach disks; the smaller disk holds no cell center, so
// CellsWithin contributes the cell containing the observation (with the
// interpolated position already in the next cell); the reach disks are
// disjoint, so the candidates are the noise support around the
// interpolated position.
func TestMayMeetAcceptanceRules(t *testing.T) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: 200, Y: 100}), 10)
	if err != nil {
		t.Fatal(err)
	}
	sample := func(tt, x, y float64) model.Sample { return model.Sample{T: tt, Loc: geo.Point{X: x, Y: y}} }
	cases := []struct {
		name       string
		noise      NoiseModel
		maxSpeed   float64
		prev, next model.Sample
		t          float64
	}{
		{"both-disks", GaussianNoise{Sigma: 5}, 2, sample(0, 40, 50), sample(20, 80, 50), 10},
		{"empty-disk-cell", PointNoise{}, 0.1, sample(0, 49.9, 49.9), sample(1000, 148.9, 49.9), 5},
		{"disjoint-fallback", GaussianNoise{Sigma: 3}, 0.5, sample(0, 20, 50), sample(10, 180, 50), 5},
	}
	for _, c := range cases {
		e := &Estimator{Grid: g, Noise: c.noise, Trans: BrownianTransition(1), MaxSpeed: c.maxSpeed}
		cand := e.candidateCellsWS(new(Workspace), c.prev, c.next, c.t)
		if len(cand) == 0 {
			t.Fatalf("%s: no candidates", c.name)
		}
		for _, cell := range cand {
			if !e.MayMeet(c.prev, c.next, c.t, []int{cell}) {
				t.Errorf("%s: candidate cell %d rejected", c.name, cell)
			}
		}
		far := []int{g.Cell(geo.Point{X: 5, Y: 95}), g.Cell(geo.Point{X: 195, Y: 5})}
		if e.MayMeet(c.prev, c.next, c.t, far) {
			t.Errorf("%s: cells far from both observations accepted", c.name)
		}
	}
	// The empty-disk case only holds if the rule under test is the only
	// one that admits its candidate.
	prev := cases[1].prev
	if f := 5.0 / 1000; g.Cell(prev.Loc.Lerp(cases[1].next.Loc, f)) == g.Cell(prev.Loc) {
		t.Fatal("empty-disk-cell: interpolated position shares the observation's cell")
	}
}

// TestMayMeetNeverSkipsWithoutTransition keeps ErrNoTransition visible: a
// caller that skips on a false answer must still reach BetweenDistWS.
func TestMayMeetNeverSkipsWithoutTransition(t *testing.T) {
	c := newMeetCase(3, 3)
	c.e.Trans = nil
	if !c.e.MayMeet(c.prev, c.next, c.t, []int{0}) {
		t.Fatal("MayMeet answered false without a transition model")
	}
}

// FuzzMayMeetSound drives checkMeetSound over fuzzed seeds and regimes:
// whenever MayMeet answers "cannot meet", the candidate cells of
// BetweenDistWS share no cell with the given set.
func FuzzMayMeetSound(f *testing.F) {
	for _, mode := range []uint8{1, 3, 5, 20, 22, 27, 29, 31, 40, 44, 47, 53} {
		f.Add(int64(mode)*7+1, mode)
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		checkMeetSound(t, newMeetCase(seed, mode))
	})
}
