package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// admissibleEps absorbs the floating-point slack the admissibility
// assertions allow: bounds are inflated by boundInflate, so any violation
// beyond this is a real (not rounding) bug.
const admissibleEps = 1e-12

// checkAdmissible asserts the full bound contract on one prepared/profiled
// pair: UpperBound dominates the exact score, UpperBoundProfiled dominates
// the profiled score, zero bounds certify exact zeros, and the thresholded
// scorers are bit-identical on completion and sound on early exit.
func checkAdmissible(t *testing.T, m *Measure, a, b *Prepared, pa, pb *Profile) {
	t.Helper()
	exact, err := m.SimilarityPrepared(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := UpperBound(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ub < exact-admissibleEps {
		t.Fatalf("UpperBound %v < exact %v", ub, exact)
	}
	if ub == 0 && exact != 0 {
		t.Fatalf("zero UpperBound but exact %v", exact)
	}
	prof, err := SimilarityProfiled(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	ubp, err := UpperBoundProfiled(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ubp < prof-admissibleEps {
		t.Fatalf("UpperBoundProfiled %v < profiled %v", ubp, prof)
	}
	if ubp == 0 && prof != 0 {
		t.Fatalf("zero UpperBoundProfiled but profiled %v", prof)
	}

	for _, theta := range []float64{math.Inf(-1), 0, exact / 2, exact, exact * 1.0001, ub, ub * 2} {
		got, ok, err := m.RefineThreshold(a, b, pa, pb, theta)
		if err != nil {
			t.Fatal(err)
		}
		if ok && got != exact {
			t.Fatalf("theta %v: RefineThreshold completed with %v, exact %v", theta, got, exact)
		}
		if !ok && !(exact < theta) {
			t.Fatalf("theta %v: RefineThreshold exit (bound %v) but exact %v reaches it", theta, got, exact)
		}
		gotP, okP, err := SimilarityProfiledThreshold(pa, pb, theta)
		if err != nil {
			t.Fatal(err)
		}
		if okP && gotP != prof {
			t.Fatalf("theta %v: SimilarityProfiledThreshold completed with %v, profiled %v", theta, gotP, prof)
		}
		if !okP && !(prof < theta) {
			t.Fatalf("theta %v: profiled exit (bound %v) but profiled %v reaches it", theta, gotP, prof)
		}
	}
}

// checkBoundsOnlyAgree asserts that each pair of profiles, bound-only on
// at least one side, feeds the exact filter exactly what the full profiles
// pa/pb feed it: the same UpperBound and, at every theta, the same
// RefineThreshold value and ok. A bound-only profile paired with a full
// one is the pairing an exact engine makes after warm-loading full
// profiles.
func checkBoundsOnlyAgree(t *testing.T, m *Measure, a, b *Prepared, pa, pb *Profile, thetas []float64, pairs ...[2]*Profile) {
	t.Helper()
	wantUB, err := UpperBound(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	type refined struct {
		v  float64
		ok bool
	}
	want := make([]refined, len(thetas))
	for i, theta := range thetas {
		if want[i].v, want[i].ok, err = m.RefineThreshold(a, b, pa, pb, theta); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range pairs {
		label := fmt.Sprintf("bound-only %v/%v", pair[0].BoundsOnly(), pair[1].BoundsOnly())
		for _, q := range pair {
			if q.BoundsOnly() && (!q.HasBounds() || q.NumBuckets() != 0 || q.MemoryCells() != 0) {
				t.Fatalf("%s: bound-only profile %s has bounds %v, %d entries, %d cells", label, q.ID, q.HasBounds(), q.NumBuckets(), q.MemoryCells())
			}
		}
		ub, err := UpperBound(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if ub != wantUB {
			t.Fatalf("%s: UpperBound %.17g, full profiles %.17g", label, ub, wantUB)
		}
		for i, theta := range thetas {
			v, ok, err := m.RefineThreshold(a, b, pair[0], pair[1], theta)
			if err != nil {
				t.Fatal(err)
			}
			if v != want[i].v || ok != want[i].ok {
				t.Fatalf("%s, theta %v: RefineThreshold %.17g (ok %v), full profiles %.17g (ok %v)",
					label, theta, v, ok, want[i].v, want[i].ok)
			}
		}
	}
}

func TestUpperBoundAdmissibleOnWalks(t *testing.T) {
	g := testGrid(t)
	cases := []struct{ a, b model.Trajectory }{
		// near-parallel overlapping walks
		{walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 10), walk("b", geo.Point{Y: 103}, 1, 0.1, 15, 3, 8)},
		// same path, shifted in time
		{walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 10), walk("b", geo.Point{Y: 100}, 1, 0, 10, 45, 10)},
		// spatially far apart
		{walk("a", geo.Point{Y: 20}, 1, 0, 10, 0, 10), walk("b", geo.Point{X: 150, Y: 180}, -1, 0, 10, 0, 10)},
		// temporally disjoint
		{walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 5), walk("b", geo.Point{Y: 100}, 1, 0, 10, 1000, 5)},
		// identical
		{walk("a", geo.Point{Y: 100}, 1, 1, 7, 2, 12), walk("b", geo.Point{Y: 100}, 1, 1, 7, 2, 12)},
		// single samples
		{walk("a", geo.Point{Y: 100}, 0, 0, 10, 5, 1), walk("b", geo.Point{Y: 101}, 0, 0, 10, 5, 1)},
	}
	for _, sigma := range []float64{1.5, 3} {
		m := mustSTS(t, g, sigma)
		for ci, c := range cases {
			for _, w := range []float64{5, 30, 240} {
				a, err := m.Prepare(c.a)
				if err != nil {
					t.Fatal(err)
				}
				b, err := m.Prepare(c.b)
				if err != nil {
					t.Fatal(err)
				}
				opts := ProfileOptions{Bounds: true, BucketSeconds: w}
				pa, err := m.Profile(a, opts)
				if err != nil {
					t.Fatal(err)
				}
				pb, err := m.Profile(b, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("sigma %v case %d width %v", sigma, ci, w)
				checkAdmissible(t, m, a, b, pa, pb)
			}
		}
	}
}

// TestUpperBoundExactMode pins the unbounded-envelope path: in Exact mode
// supports span the whole grid, so the bound must still dominate.
func TestUpperBoundExactMode(t *testing.T) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{}, geo.Point{X: 60, Y: 60}), 6)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{Grid: g, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Prepare(walk("a", geo.Point{X: 10, Y: 10}, 1, 0.5, 10, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Prepare(walk("b", geo.Point{X: 14, Y: 12}, 1, 0.4, 12, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	pa, err := m.Profile(a, ProfileOptions{Bounds: true, BucketSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.Profile(b, ProfileOptions{Bounds: true, BucketSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkAdmissible(t, m, a, b, pa, pb)
}

func TestUpperBoundValidation(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p30 := mustProfile(t, m, tr, ProfileOptions{Bounds: true, BucketSeconds: 30})
	p10 := mustProfile(t, m, tr, ProfileOptions{Bounds: true, BucketSeconds: 10})
	if _, err := UpperBound(p30, nil); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := UpperBound(p30, p10); err == nil {
		t.Error("mismatched widths accepted")
	}
	if _, err := UpperBoundProfiled(p30, p10); err == nil {
		t.Error("mismatched widths accepted by profiled bound")
	}
	if ub, err := UpperBound(p30, p30); err != nil || ub <= 0 {
		t.Errorf("self bound = %v, %v", ub, err)
	}
	bare := mustProfile(t, m, tr, ProfileOptions{BucketSeconds: 30})
	if _, err := UpperBound(bare, bare); err == nil {
		t.Error("profile built without Bounds accepted")
	}
}

// TestProfiledScorersRejectBoundsOnly pins the guard on bound-only
// profiles: they carry no scoring entries, so the three profiled scorers
// must return an error on them instead of scoring a silent 0, on either
// side, while the exact filter's UpperBound and RefineThreshold accept
// them. AppendProfile, which extends entries, refuses them too.
func TestProfiledScorersRejectBoundsOnly(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p := mustPrepare(t, m, tr)
	full, err := m.Profile(p, ProfileOptions{Bounds: true})
	if err != nil {
		t.Fatal(err)
	}
	bo, err := m.Profile(p, ProfileOptions{BoundsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := SimilarityProfiled(full, full); err != nil || v <= 0 {
		t.Fatalf("full self-similarity = %v, %v", v, err)
	}
	for _, pair := range [][2]*Profile{{bo, full}, {full, bo}, {bo, bo}} {
		label := fmt.Sprintf("bound-only %v/%v", pair[0].BoundsOnly(), pair[1].BoundsOnly())
		if v, err := SimilarityProfiled(pair[0], pair[1]); err == nil {
			t.Errorf("%s: SimilarityProfiled = %v, want an error", label, v)
		}
		if v, err := UpperBoundProfiled(pair[0], pair[1]); err == nil {
			t.Errorf("%s: UpperBoundProfiled = %v, want an error", label, v)
		}
		if v, ok, err := SimilarityProfiledThreshold(pair[0], pair[1], 0); err == nil {
			t.Errorf("%s: SimilarityProfiledThreshold = %v (ok %v), want an error", label, v, ok)
		}
		if ub, err := UpperBound(pair[0], pair[1]); err != nil || ub <= 0 {
			t.Errorf("%s: UpperBound = %v, %v", label, ub, err)
		}
		if v, ok, err := m.RefineThreshold(p, p, pair[0], pair[1], math.Inf(-1)); err != nil || !ok || v <= 0 {
			t.Errorf("%s: RefineThreshold = %v (ok %v), %v", label, v, ok, err)
		}
	}
	head := mustPrepare(t, m, model.Trajectory{ID: tr.ID, Samples: tr.Samples[:5]})
	for _, c := range []struct {
		name string
		old  ProfileOptions
		opts ProfileOptions
	}{
		{"bound-only prefix", ProfileOptions{BoundsOnly: true}, ProfileOptions{Bounds: true}},
		{"bound-only options", ProfileOptions{Bounds: true}, ProfileOptions{BoundsOnly: true}},
	} {
		old, err := m.Profile(head, c.old)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AppendProfile(old, p, c.opts); err == nil {
			t.Errorf("AppendProfile accepted a %s", c.name)
		}
	}
}

// FuzzUpperBoundAdmissible drives the bounds over randomized trajectory
// pairs and bucket widths: UpperBound must dominate the exact STS score and
// UpperBoundProfiled the profiled score, always; thresholded scoring must be
// exact on completion and sound on exit; bound-only profiles must give the
// exact filter the same bound and refinement as full ones. Seeds cover the mall-like
// (fine grid, slow walks) and taxi-like (coarse grid, fast sparse sampling)
// regimes of the experiment fixtures.
func FuzzUpperBoundAdmissible(f *testing.F) {
	// mall-like: ~1 m/s walks, dense sampling, fine buckets
	f.Add(int64(1), 30.0, 1.5, false)
	f.Add(int64(7), 5.0, 3.0, false)
	// taxi-like: fast, sporadic sampling, coarse buckets
	f.Add(int64(42), 120.0, 15.0, true)
	f.Add(int64(1234), 240.0, 50.0, true)
	f.Fuzz(func(t *testing.T, seed int64, width, sigma float64, fast bool) {
		if width < 1 || width > 1e4 || math.IsNaN(width) {
			t.Skip()
		}
		if sigma < 0.5 || sigma > 100 || math.IsNaN(sigma) {
			t.Skip()
		}
		g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -50, Y: -50}, geo.Point{X: 450, Y: 450}), math.Max(2, sigma))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewSTS(g, sigma)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		speed := 1.5
		if fast {
			speed = 12
		}
		mk := func(id string) model.Trajectory {
			tr := model.Trajectory{ID: id}
			tt := r.Float64() * 100
			p := geo.Point{X: r.Float64() * 400, Y: r.Float64() * 400}
			n := 2 + r.Intn(12)
			for i := 0; i < n; i++ {
				tr.Samples = append(tr.Samples, model.Sample{T: tt, Loc: p})
				dt := 1 + r.Float64()*60 // sporadic gaps
				tt += dt
				p = p.Add(geo.Point{X: (r.Float64()*2 - 1) * speed * dt, Y: (r.Float64()*2 - 1) * speed * dt})
			}
			return tr
		}
		a, err := m.Prepare(mk("a"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Prepare(mk("b"))
		if err != nil {
			t.Fatal(err)
		}
		opts := ProfileOptions{Bounds: true, BucketSeconds: width}
		pa, err := m.Profile(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := m.Profile(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAdmissible(t, m, a, b, pa, pb)
		boOpts := ProfileOptions{BoundsOnly: true, BucketSeconds: width}
		qa, err := m.Profile(a, boOpts)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := m.Profile(b, boOpts)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := m.SimilarityPrepared(a, b)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundsOnlyAgree(t, m, a, b, pa, pb, []float64{math.Inf(-1), 0, exact / 2, exact, exact * 1.0001},
			[2]*Profile{qa, qb}, [2]*Profile{pa, qb}, [2]*Profile{qa, pb})

		// Incremental maintenance must be indistinguishable from the
		// rebuild: regrow a from a random prefix by appending its tail,
		// require the resulting profile to be bit-identical to pa, and
		// re-run the whole bound contract against it.
		if n := a.Tr.Len(); n >= 3 {
			cut := 1 + r.Intn(n-1)
			head, err := m.Prepare(model.Trajectory{ID: a.Tr.ID, Samples: a.Tr.Samples[:cut]})
			if err != nil {
				t.Fatal(err)
			}
			ph, err := m.Profile(head, opts)
			if err != nil {
				t.Fatal(err)
			}
			grown, err := m.AppendPrepared(head, a.Tr.Samples[cut:])
			if err != nil {
				t.Fatal(err)
			}
			pg, err := m.AppendProfile(ph, grown, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pg, pa) {
				t.Fatalf("incremental profile differs from rebuild (cut %d of %d)", cut, n)
			}
			checkAdmissible(t, m, grown, b, pg, pb)
		}
	})
}
