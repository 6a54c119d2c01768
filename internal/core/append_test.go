package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/model"
)

// randTraj draws a sporadically sampled random walk with n samples.
func randTraj(r *rand.Rand, id string, n int) model.Trajectory {
	tr := model.Trajectory{ID: id}
	tt := r.Float64() * 50
	p := geo.Point{X: 50 + r.Float64()*100, Y: 50 + r.Float64()*100}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, model.Sample{T: tt, Loc: p})
		dt := 1 + r.Float64()*45
		tt += dt
		p = p.Add(geo.Point{X: (r.Float64()*2 - 1) * 2 * dt, Y: (r.Float64()*2 - 1) * 2 * dt})
	}
	return tr
}

// requirePreparedIdentical asserts AppendPrepared produced exactly the
// state Prepare derives from the full trajectory.
func requirePreparedIdentical(t *testing.T, got, want *Prepared) {
	t.Helper()
	if !reflect.DeepEqual(got.Tr, want.Tr) {
		t.Fatalf("trajectories differ: %+v vs %+v", got.Tr, want.Tr)
	}
	if got.est.MaxSpeed != want.est.MaxSpeed {
		t.Fatalf("MaxSpeed %v != %v", got.est.MaxSpeed, want.est.MaxSpeed)
	}
	if len(got.obs) != len(want.obs) {
		t.Fatalf("obs count %d != %d", len(got.obs), len(want.obs))
	}
	for i := range got.obs {
		if !reflect.DeepEqual(got.obs[i].Cells, want.obs[i].Cells) ||
			!reflect.DeepEqual(got.obs[i].Probs, want.obs[i].Probs) {
			t.Fatalf("obs[%d] differs", i)
		}
	}
}

// requireProfilesIdentical asserts bit-identity of every field, including
// the bound metadata — the contract AppendProfile documents.
func requireProfilesIdentical(t *testing.T, got, want *Profile) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	// Narrow the failure for a readable message.
	if !reflect.DeepEqual(got.buckets, want.buckets) {
		t.Fatalf("buckets differ:\n got %v\nwant %v", got.buckets, want.buckets)
	}
	if !reflect.DeepEqual(got.weights, want.weights) {
		t.Fatalf("weights differ:\n got %v\nwant %v", got.weights, want.weights)
	}
	for i := range want.dists {
		if !reflect.DeepEqual(got.dists[i], want.dists[i]) {
			t.Fatalf("dists[%d] (bucket %d) differs", i, want.buckets[i])
		}
	}
	t.Fatalf("bound metadata differs:\n got %+v\nwant %+v", got, want)
}

// measuresUnderTest builds one measure per transition-provider family: the
// personalized KDE (trajectory-dependent, forces interpolated-prefix
// recomputation) and a pooled global model (trajectory-independent, the
// copy-everything fast path).
func measuresUnderTest(t *testing.T, seed model.Dataset) map[string]*Measure {
	t.Helper()
	g := testGrid(t)
	personal := mustSTS(t, g, 3)
	pooled, err := kde.NewPooledSpeedModel(seed)
	if err != nil {
		t.Fatal(err)
	}
	global, err := NewSTSG(g, 3, pooled)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Measure{"personalized": personal, "global": global}
}

// TestAppendMatchesRebuild drives randomized append sequences: a
// trajectory grows chunk by chunk, and after every chunk the incrementally
// maintained prepared state and profile must be bit-identical to a
// from-scratch rebuild of the grown trajectory — across provider families
// and with bound metadata on.
func TestAppendMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	seedDS := model.Dataset{randTraj(r, "s1", 12), randTraj(r, "s2", 9)}
	for name, m := range measuresUnderTest(t, seedDS) {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				full := randTraj(r, "tr", 6+r.Intn(14))
				cut := 1 + r.Intn(len(full.Samples)-1)
				cur := model.Trajectory{ID: full.ID, Samples: full.Samples[:cut]}
				p, err := m.Prepare(cur)
				if err != nil {
					t.Fatal(err)
				}
				opts := ProfileOptions{Bounds: true, BucketSeconds: 30}
				prof := mustProfile(t, m, cur, opts)
				for cut < len(full.Samples) {
					k := 1 + r.Intn(3)
					if cut+k > len(full.Samples) {
						k = len(full.Samples) - cut
					}
					tail := full.Samples[cut : cut+k]
					cut += k
					grown := model.Trajectory{ID: full.ID, Samples: full.Samples[:cut]}

					p, err = m.AppendPrepared(p, tail)
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.Prepare(grown)
					if err != nil {
						t.Fatal(err)
					}
					requirePreparedIdentical(t, p, want)

					prof, err = m.AppendProfile(prof, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireProfilesIdentical(t, prof, mustProfile(t, m, grown, opts))
				}
			}
		})
	}
}

// TestAppendBoundsStayAdmissible runs the full bound contract against a
// profile that went through several incremental appends: the incremental
// path must keep certified-zero filtering and thresholded refinement sound.
func TestAppendBoundsStayAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	opts := ProfileOptions{Bounds: true, BucketSeconds: 30}
	other := randTraj(r, "other", 10)
	b, err := m.Prepare(other)
	if err != nil {
		t.Fatal(err)
	}
	pb := mustProfile(t, m, other, opts)
	full := randTraj(r, "grower", 12)
	a, err := m.Prepare(model.Trajectory{ID: full.ID, Samples: full.Samples[:3]})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := m.Profile(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 3; cut < len(full.Samples); cut += 3 {
		end := cut + 3
		if end > len(full.Samples) {
			end = len(full.Samples)
		}
		a, err = m.AppendPrepared(a, full.Samples[cut:end])
		if err != nil {
			t.Fatal(err)
		}
		pa, err = m.AppendProfile(pa, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAdmissible(t, m, a, b, pa, pb)
	}
}

// TestAppendValidation pins the error paths: empty tails, non-increasing
// timestamps, and profile/prepared mismatches must be rejected.
func TestAppendValidation(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p, err := m.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendPrepared(p, nil); err == nil {
		t.Error("empty tail accepted")
	}
	if _, err := m.AppendPrepared(nil, tr.Samples); err == nil {
		t.Error("nil prepared accepted")
	}
	stale := tr.Samples[len(tr.Samples)-1] // same timestamp as current end
	if _, err := m.AppendPrepared(p, []model.Sample{stale}); err == nil {
		t.Error("non-increasing tail accepted")
	}
	prof := mustProfile(t, m, tr, ProfileOptions{BucketSeconds: 30})
	if _, err := m.AppendProfile(prof, p, ProfileOptions{BucketSeconds: 30}); err == nil {
		t.Error("profile of the full trajectory accepted as prefix")
	}
	tail := model.Sample{T: tr.End() + 5, Loc: tr.Samples[0].Loc}
	grown, err := m.AppendPrepared(p, []model.Sample{tail})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendProfile(prof, grown, ProfileOptions{BucketSeconds: 60}); err == nil {
		t.Error("mismatched bucket width accepted")
	}
	if got, err := m.AppendProfile(prof, grown, ProfileOptions{BucketSeconds: 30}); err != nil {
		t.Errorf("valid append rejected: %v", err)
	} else {
		requireProfilesIdentical(t, got, mustProfile(t, m, model.Trajectory{ID: tr.ID, Samples: grown.Tr.Samples}, ProfileOptions{BucketSeconds: 30}))
	}
}
