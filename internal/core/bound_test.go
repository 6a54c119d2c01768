package core

import (
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

// FuzzUpperBoundAdmissible drives the bounds over randomized trajectory
// pairs and bucket widths: UpperBound must dominate the exact STS score and
// UpperBoundProfiled the profiled score, always; thresholded scoring must be
// exact on completion and sound on exit. Seeds cover the mall-like
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
