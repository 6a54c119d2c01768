package stprob

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDot is the straight-line scalar reference for the shaped kernel: a
// three-way-switch merge with float64 accumulation and no unrolling or
// slice pinning. The BCE-shaped Dot must agree with it to within
// reassociation-free tolerance (it does not reorder the accumulation, so it
// must match to ~1 ulp per term).
func naiveDot(aCells []int, aProbs []float64, bCells []int, bProbs []float64) float64 {
	var s float64
	i, j := 0, 0
	for i < len(aCells) && j < len(bCells) {
		switch {
		case aCells[i] < bCells[j]:
			i++
		case aCells[i] > bCells[j]:
			j++
		default:
			s += aProbs[i] * bProbs[j]
			i++
			j++
		}
	}
	return s
}

// randDist draws a sorted sparse distribution over [0, space) with the
// given support size; overlap with a partner is arranged by the shared
// cell space.
func randDist(r *rand.Rand, n, space int) Dist {
	if n == 0 {
		return Dist{}
	}
	seen := make(map[int]bool, n)
	d := Dist{}
	for len(d.Cells) < n {
		c := r.Intn(space)
		if seen[c] {
			continue
		}
		seen[c] = true
		d.Cells = append(d.Cells, c)
		d.Probs = append(d.Probs, r.Float64())
	}
	d.sorted()
	d.normalize()
	return d
}

// TestDotMatchesScalarReference drives the shaped kernel against the naive
// scalar loop across the structural edge cases the pinning and branch-lean
// advance must not change: empty and singleton supports, disjoint supports,
// full aliasing (a distribution dotted with itself), and dense overlap.
func TestDotMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		a, b Dist
	}{
		{"both empty", Dist{}, Dist{}},
		{"one empty", Dist{}, randDist(r, 5, 40)},
		{"singletons matching", Dist{Cells: []int{3}, Probs: []float64{1}}, Dist{Cells: []int{3}, Probs: []float64{1}}},
		{"singletons disjoint", Dist{Cells: []int{3}, Probs: []float64{1}}, Dist{Cells: []int{9}, Probs: []float64{1}}},
		{"disjoint supports", Dist{Cells: []int{0, 2, 4}, Probs: []float64{0.2, 0.3, 0.5}},
			Dist{Cells: []int{1, 3, 5}, Probs: []float64{0.1, 0.4, 0.5}}},
	}
	for i := 0; i < 200; i++ {
		a := randDist(r, r.Intn(30), 60)
		b := randDist(r, r.Intn(30), 60)
		cases = append(cases, struct {
			name string
			a, b Dist
		}{"random", a, b})
		// Aliased: same backing arrays on both sides of the merge.
		cases = append(cases, struct {
			name string
			a, b Dist
		}{"aliased", a, a})
	}
	for _, c := range cases {
		want := naiveDot(c.a.Cells, c.a.Probs, c.b.Cells, c.b.Probs)
		if got := c.a.Dot(c.b); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Dot=%v scalar=%v (|Δ|=%g)", c.name, got, want, math.Abs(got-want))
		}
	}
}

// FuzzDotMatchesScalarReference lets the fuzzer mutate support sizes, the
// shared cell space (controlling overlap density) and the seed; the shaped
// kernel must track the scalar reference everywhere.
func FuzzDotMatchesScalarReference(f *testing.F) {
	f.Add(int64(1), 5, 7, 20)
	f.Add(int64(42), 0, 3, 5)
	f.Add(int64(9), 33, 33, 34)
	f.Fuzz(func(t *testing.T, seed int64, na, nb, space int) {
		if na < 0 || nb < 0 || na > 200 || nb > 200 || space < na || space < nb || space > 4000 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		a, b := randDist(r, na, space), randDist(r, nb, space)
		want := naiveDot(a.Cells, a.Probs, b.Cells, b.Probs)
		if got := a.Dot(b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Dot=%v scalar=%v", got, want)
		}
	})
}
