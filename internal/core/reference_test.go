package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/stslib/sts/internal/datagen"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// referenceSTS is Eq. 10 summed in SimilarityPrepared's order from
// Prepared.DistAt and Dist.Dot, neither of which goes through coLocationWS:
// every term is interpolated in full, so it is the oracle for the
// exact-zero skip. skipped counts the terms coLocationWS may skip (exactly
// one side observed at t, the other's candidates missing that
// observation's support), so callers can require the skip to be exercised.
func referenceSTS(t *testing.T, a, b *Prepared) (score float64, skipped int) {
	t.Helper()
	var total float64
	for _, side := range [2]*Prepared{a, b} {
		for _, s := range side.Tr.Samples {
			da, err := a.DistAt(s.T)
			if err != nil {
				t.Fatal(err)
			}
			db, err := b.DistAt(s.T)
			if err != nil {
				t.Fatal(err)
			}
			total += da.Dot(db)
			if canSkip(a, b, s.T) || canSkip(b, a, s.T) {
				skipped++
			}
		}
	}
	return total / float64(a.Tr.Len()+b.Tr.Len()), skipped
}

// canSkip reports whether p lies strictly between observations at t while q
// is observed there, with p's candidate cells missing q's noise support.
func canSkip(p, q *Prepared, t float64) bool {
	atP, okP := p.locate(t)
	atQ, okQ := q.locate(t)
	return okP && okQ && atP.exact < 0 && atQ.exact >= 0 && !p.mayMeet(atP, t, q.obs[atQ.exact].Cells)
}

// scaledSpeedBound wraps a provider and scales its speed bound: 0 removes
// the bound (candidate disks from the noise radius plus the observation
// gap), a small factor makes consecutive observations too far apart for
// it (disjoint reach disks, so the interpolated-position fallback runs).
type scaledSpeedBound struct {
	Provider TransitionProvider
	Factor   float64
}

func (s scaledSpeedBound) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	spec, err := s.Provider.For(tr)
	spec.MaxSpeed *= s.Factor
	return spec, err
}

// refWorld is one dataset regime of the reference suite: a few synthetic
// trips of one workload, noised at the sensing scale and split into
// alternating halves (the paper's twin pairs), with the default cell size,
// a coarse cell size for Exact mode, and the noise scale.
type refWorld struct {
	name         string
	a, b         model.Dataset
	cell, coarse float64
	sigma        float64
}

// refWorlds builds the mall and taxi worlds; short halves their trip
// counts.
func refWorlds(short bool) []refWorld {
	nMall, nTaxi := 3, 8
	if short {
		nMall, nTaxi = 2, 4
	}
	mall, _ := datagen.GenerateMall(datagen.DefaultMallConfig(nMall))
	taxi, _ := datagen.GenerateTaxi(datagen.DefaultTaxiConfig(nTaxi))
	mall = model.AddNoiseDataset(mall, 3, rand.New(rand.NewSource(5)))
	taxi = model.AddNoiseDataset(taxi, 10, rand.New(rand.NewSource(6)))
	ma, mb := model.SplitDataset(mall)
	ta, tb := model.SplitDataset(taxi)
	return []refWorld{
		{name: "mall", a: ma, b: mb, cell: 3, coarse: 20, sigma: 3},
		{name: "taxi", a: ta, b: tb, cell: 100, coarse: 1000, sigma: 10},
	}
}

// bounds returns the extent of every sample in the world.
func (w refWorld) bounds() geo.Rect {
	r := geo.Rect{Min: w.a[0].Samples[0].Loc, Max: w.a[0].Samples[0].Loc}
	for _, ds := range [2]model.Dataset{w.a, w.b} {
		for _, tr := range ds {
			for _, s := range tr.Samples {
				r = r.Union(geo.Rect{Min: s.Loc, Max: s.Loc})
			}
		}
	}
	return r
}

// refConfigs are the measure configurations the skip must stay exact
// under. Each builds a measure for a world; every knob that changes the
// candidate cells or the noise supports appears at least once.
var refConfigs = []struct {
	name string
	// fallback marks the configuration whose speed bound is too tight for
	// the observations, which the suite checks really forces the fallback.
	fallback bool
	measure  func(t *testing.T, w refWorld) *Measure
}{
	{name: "default", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{})
	}},
	{name: "max-speed-0", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{Provider: scaledSpeedBound{Provider: PersonalizedSpeed{}}})
	}},
	{name: "caps", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{MaxCandidateCells: 24, MaxSupportCells: 12})
	}},
	{name: "speed-slack", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{SpeedSlack: 2 * w.cell})
	}},
	{name: "no-speed-slack", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{SpeedSlack: -1})
	}},
	{name: "point-noise", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{Noise: stprob.PointNoise{}})
	}},
	{name: "uniform-noise", measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{Noise: stprob.UniformNoise{Radius: 2 * w.sigma}})
	}},
	{name: "disjoint-reach", fallback: true, measure: func(t *testing.T, w refWorld) *Measure {
		return refMeasure(t, w, Options{Provider: scaledSpeedBound{Provider: PersonalizedSpeed{}, Factor: 0.02}})
	}},
	{name: "grid-edge", measure: func(t *testing.T, w refWorld) *Measure {
		// A grid over the middle of the data only: many observations lie
		// beyond its edge, so supports and candidate disks clamp there.
		b := w.bounds()
		c := b.Center()
		inner := geo.NewRect(c.Add(geo.Point{X: -b.Width() / 4, Y: -b.Height() / 4}),
			c.Add(geo.Point{X: b.Width() / 4, Y: b.Height() / 4}))
		g, err := geo.NewGrid(inner, w.cell)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Options{Grid: g, Noise: stprob.GaussianNoise{Sigma: w.sigma}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
	{name: "exact", measure: func(t *testing.T, w refWorld) *Measure {
		g, err := geo.NewGrid(w.bounds().Expand(w.coarse), w.coarse)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Options{Grid: g, Noise: stprob.GaussianNoise{Sigma: w.coarse}, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
}

// refMeasure builds a measure over the world's padded extent at its
// default cell size and noise scale, with opts' other fields.
func refMeasure(t *testing.T, w refWorld, opts Options) *Measure {
	t.Helper()
	g, err := geo.NewGrid(w.bounds().Expand(4*w.sigma+w.cell), w.cell)
	if err != nil {
		t.Fatal(err)
	}
	opts.Grid = g
	if opts.Noise == nil {
		opts.Noise = stprob.GaussianNoise{Sigma: w.sigma}
	}
	m, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustPrepare(t *testing.T, m *Measure, tr model.Trajectory) *Prepared {
	t.Helper()
	p, err := m.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSkipMatchesNonSkippingReference pins the exact-zero co-location skip
// against a scorer that never skips: on mall and taxi pairs (twins and
// strangers) under every configuration of refConfigs, SimilarityPrepared
// and RefineThreshold at θ = −Inf must equal the DistAt/Dot reference
// exactly. The suite also requires the skip to fire (except in Exact mode,
// where it must not) and the fallback configuration to reach the fallback.
func TestSkipMatchesNonSkippingReference(t *testing.T) {
	for _, w := range refWorlds(testing.Short()) {
		for _, cfg := range refConfigs {
			t.Run(w.name+"/"+cfg.name, func(t *testing.T) {
				m := cfg.measure(t, w)
				prep := func(ds model.Dataset) ([]*Prepared, []*Profile) {
					ps := make([]*Prepared, len(ds))
					prof := make([]*Profile, len(ds))
					for i, tr := range ds {
						ps[i] = mustPrepare(t, m, tr)
						prof[i] = mustProfile(t, m, tr, ProfileOptions{Bounds: true})
					}
					return ps, prof
				}
				pa, fa := prep(w.a)
				pb, fb := prep(w.b)
				if cfg.fallback && !anyDisjointReach(t, m, w.a) {
					t.Fatal("no observation pair is too far apart for the speed bound")
				}
				var skipped, nonzero int
				for i := range pa {
					for j := range pb {
						want, s := referenceSTS(t, pa[i], pb[j])
						skipped += s
						if want != 0 {
							nonzero++
						}
						label := fmt.Sprintf("a[%d] vs b[%d]", i, j)
						got, err := m.SimilarityPrepared(pa[i], pb[j])
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s: SimilarityPrepared %.17g, reference %.17g", label, got, want)
						}
						got, ok, err := m.RefineThreshold(pa[i], pb[j], fa[i], fb[j], math.Inf(-1))
						if err != nil {
							t.Fatal(err)
						}
						if !ok || got != want {
							t.Fatalf("%s: RefineThreshold %.17g (ok %v), reference %.17g", label, got, ok, want)
						}
					}
				}
				t.Logf("%d skippable terms, %d of %d pairs nonzero", skipped, nonzero, len(pa)*len(pb))
				if nonzero == 0 {
					t.Error("every pair scored zero; the suite compares nothing")
				}
				if exact := cfg.name == "exact"; exact != (skipped == 0) {
					t.Errorf("%d skippable terms (Exact mode must have none, others some)", skipped)
				}
			})
		}
	}
}

// TestBoundsOnlyMatchesFullProfiles pins bound-only profiles against full
// ones on the reference suite's mall and taxi pairs, under every
// configuration of refConfigs: UpperBound and RefineThreshold must return
// identical values and ok at θ = −Inf, at 0 and at the median positive
// exact score, so an exact engine prunes and scores the same with either.
// A full profile's BoundState must equal the bound-only build, field for
// field, since engines keep it in place of one.
func TestBoundsOnlyMatchesFullProfiles(t *testing.T) {
	for _, w := range refWorlds(testing.Short()) {
		for _, cfg := range refConfigs {
			t.Run(w.name+"/"+cfg.name, func(t *testing.T) {
				m := cfg.measure(t, w)
				prep := func(ds model.Dataset) (ps []*Prepared, full, bo []*Profile) {
					for _, tr := range ds {
						p := mustPrepare(t, m, tr)
						f, err := m.Profile(p, ProfileOptions{Bounds: true})
						if err != nil {
							t.Fatal(err)
						}
						q, err := m.Profile(p, ProfileOptions{BoundsOnly: true})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(f.BoundState(), q) {
							t.Fatalf("%s: BoundState of the full profile differs from the bound-only build", tr.ID)
						}
						ps, full, bo = append(ps, p), append(full, f), append(bo, q)
					}
					return ps, full, bo
				}
				pa, fa, qa := prep(w.a)
				pb, fb, qb := prep(w.b)
				var positive []float64
				for i := range pa {
					for j := range pb {
						v, err := m.SimilarityPrepared(pa[i], pb[j])
						if err != nil {
							t.Fatal(err)
						}
						if v > 0 {
							positive = append(positive, v)
						}
					}
				}
				if len(positive) == 0 {
					t.Fatal("every pair scored zero; the suite compares nothing")
				}
				sort.Float64s(positive)
				thetas := []float64{math.Inf(-1), 0, positive[len(positive)/2]}
				for i := range pa {
					for j := range pb {
						checkBoundsOnlyAgree(t, m, pa[i], pb[j], fa[i], fb[j], thetas, [2]*Profile{qa[i], qb[j]})
					}
				}
			})
		}
	}
}

// anyDisjointReach reports whether some consecutive observations of ds are
// farther apart than the reach disks of the measure's speed bound can span
// at their midpoint, so candidateCellsWS takes the fallback there.
func anyDisjointReach(t *testing.T, m *Measure, ds model.Dataset) bool {
	t.Helper()
	for _, tr := range ds {
		spec, err := m.provider.For(tr)
		if err != nil {
			t.Fatal(err)
		}
		nr := m.noise.SupportRadius()
		for i := 1; i < tr.Len(); i++ {
			prev, next := tr.Samples[i-1], tr.Samples[i]
			if prev.Loc.Dist(next.Loc) > 2*nr+spec.MaxSpeed*(next.T-prev.T)+2*m.grid.CellSize() {
				return true
			}
		}
	}
	return false
}
