package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// trimRegimes are the two sampling regimes of the experiment fixtures:
// mall-like (slow dense walks, fine buckets) and taxi-like (fast sporadic
// sampling, coarse buckets). Retention cutoffs behave differently in the
// two — mall buckets hold several observations, taxi buckets mostly one —
// so the goldens cover both.
var trimRegimes = []struct {
	name   string
	speed  float64
	maxGap float64
	bucket float64
}{
	{name: "mall", speed: 1.5, maxGap: 20, bucket: 30},
	{name: "taxi", speed: 12, maxGap: 60, bucket: 120},
}

// regimeTraj draws a sporadically sampled random walk in a regime.
func regimeTraj(r *rand.Rand, id string, n int, speed, maxGap float64) model.Trajectory {
	tr := model.Trajectory{ID: id}
	tt := r.Float64() * 50
	p := geo.Point{X: 50 + r.Float64()*100, Y: 50 + r.Float64()*100}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, model.Sample{T: tt, Loc: p})
		dt := 1 + r.Float64()*(maxGap-1)
		tt += dt
		p = p.Add(geo.Point{X: (r.Float64()*2 - 1) * speed * dt, Y: (r.Float64()*2 - 1) * speed * dt})
	}
	return tr
}

// TestTrimProfileMatchesRebuild drives randomized retention trims: a
// trajectory shrinks from the head cut by cut, and after every cut the
// incrementally trimmed prepared state and profile must be bit-identical
// to a from-scratch rebuild of the surviving suffix — across provider
// families and sampling regimes, with bound metadata on.
// The cut sequence covers cuts that straddle a bucket (old and new head in
// the same bucket), land exactly on a bucket boundary, and expire
// everything but the final sample.
func TestTrimProfileMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	seedDS := model.Dataset{randTraj(r, "s1", 12), randTraj(r, "s2", 9)}
	for name, m := range measuresUnderTest(t, seedDS) {
		t.Run(name, func(t *testing.T) {
			for _, reg := range trimRegimes {
				t.Run(reg.name, func(t *testing.T) {
					opts := ProfileOptions{Bounds: true, BucketSeconds: reg.bucket}
					for trial := 0; trial < 6; trial++ {
						full := regimeTraj(r, "tr", 8+r.Intn(12), reg.speed, reg.maxGap)
						p, err := m.Prepare(full)
						if err != nil {
							t.Fatal(err)
						}
						prof := mustProfile(t, m, full, opts)
						cut := 0
						for cut < len(full.Samples)-1 {
							k := 1 + r.Intn(3)
							if cut+k >= len(full.Samples) {
								k = len(full.Samples) - 1 - cut
							}
							cut += k
							kept := model.Trajectory{ID: full.ID, Samples: full.Samples[cut:]}

							p, err = m.TrimPrepared(p, k)
							if err != nil {
								t.Fatal(err)
							}
							want, err := m.Prepare(kept)
							if err != nil {
								t.Fatal(err)
							}
							requirePreparedIdentical(t, p, want)

							prof, err = m.TrimProfile(prof, p, opts)
							if err != nil {
								t.Fatal(err)
							}
							requireProfilesIdentical(t, prof, mustProfile(t, m, kept, opts))
						}
					}
				})
			}
		})
	}
}

// TestTrimProfileBoundaryCuts pins the two degenerate cutoffs explicitly:
// a cut landing exactly on a bucket boundary (the new head starts a fresh
// bucket, the straddle bucket disappears entirely) and an all-but-one trim
// in a single step.
func TestTrimProfileBoundaryCuts(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	const w = 30.0
	// Samples at t = 0, 30, 60, ...: every sample starts its own bucket, so
	// any cut is an exact bucket-boundary cut.
	tr := walk("a", geo.Point{Y: 100}, 1, 0, w, 0, 8)
	opts := ProfileOptions{Bounds: true, BucketSeconds: w}
	for _, drop := range []int{1, 3, len(tr.Samples) - 1} {
		p, err := m.Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		prof := mustProfile(t, m, tr, opts)
		p, err = m.TrimPrepared(p, drop)
		if err != nil {
			t.Fatal(err)
		}
		kept := model.Trajectory{ID: tr.ID, Samples: tr.Samples[drop:]}
		requirePreparedIdentical(t, p, mustPrepare(t, m, kept))
		got, err := m.TrimProfile(prof, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireProfilesIdentical(t, got, mustProfile(t, m, kept, opts))
	}
}

func mustPrepare(t *testing.T, m *Measure, tr model.Trajectory) *Prepared {
	t.Helper()
	p, err := m.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrimBoundsStayAdmissible runs the full bound contract against a
// profile that went through several incremental trims: the incremental
// path must keep certified-zero filtering and thresholded refinement sound.
func TestTrimBoundsStayAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	opts := ProfileOptions{Bounds: true, BucketSeconds: 30}
	other := randTraj(r, "other", 10)
	b, err := m.Prepare(other)
	if err != nil {
		t.Fatal(err)
	}
	pb := mustProfile(t, m, other, opts)
	full := randTraj(r, "shrinker", 12)
	a, err := m.Prepare(full)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := m.Profile(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for a.Tr.Len() > 3 {
		a, err = m.TrimPrepared(a, 2)
		if err != nil {
			t.Fatal(err)
		}
		pa, err = m.TrimProfile(pa, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAdmissible(t, m, a, b, pa, pb)
	}
}

// TestTrimValidation pins the error paths: out-of-range drops and
// profile/prepared mismatches must be rejected.
func TestTrimValidation(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p, err := m.Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrimPrepared(p, 0); err == nil {
		t.Error("zero drop accepted")
	}
	if _, err := m.TrimPrepared(p, tr.Len()); err == nil {
		t.Error("drop of every sample accepted")
	}
	if _, err := m.TrimPrepared(nil, 1); err == nil {
		t.Error("nil prepared accepted")
	}
	prof := mustProfile(t, m, tr, ProfileOptions{BucketSeconds: 30})
	if _, err := m.TrimProfile(prof, p, ProfileOptions{BucketSeconds: 30}); err == nil {
		t.Error("profile of the untrimmed trajectory accepted as supersequence")
	}
	trimmed, err := m.TrimPrepared(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrimProfile(prof, trimmed, ProfileOptions{BucketSeconds: 60}); err == nil {
		t.Error("mismatched bucket width accepted")
	}
	if got, err := m.TrimProfile(prof, trimmed, ProfileOptions{BucketSeconds: 30}); err != nil {
		t.Errorf("valid trim rejected: %v", err)
	} else {
		requireProfilesIdentical(t, got, mustProfile(t, m, trimmed.Tr, ProfileOptions{BucketSeconds: 30}))
	}
}

// TestProfileCodecRoundTrip pins the sidecar payload codec: encoding and
// decoding a profile reproduces every field bit-identically — across
// provider families and bucket widths, with bound metadata on and off.
// (Decoded bound distributions own their storage where the original
// aliased the Prepared cache; reflect.DeepEqual compares values, which is
// the contract warm-loaded profiles rely on.)
func TestProfileCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	seedDS := model.Dataset{randTraj(r, "s1", 12), randTraj(r, "s2", 9)}
	for name, m := range measuresUnderTest(t, seedDS) {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				tr := randTraj(r, "tr", 4+r.Intn(10))
				for _, opts := range []ProfileOptions{
					{BucketSeconds: 30},
					{BucketSeconds: 30, Bounds: true},
					{BucketSeconds: 120, Bounds: true},
				} {
					want := mustProfile(t, m, tr, opts)
					got, err := DecodeProfile(EncodeProfile(want))
					if err != nil {
						t.Fatalf("decode (opts %+v): %v", opts, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round trip not identical (opts %+v):\n got %+v\nwant %+v", opts, got, want)
					}
				}
			}
		})
	}
}

// TestProfileCodecRejectsCorruption walks every truncation point and a
// sweep of byte flips over a valid encoding: the decoder must return an
// error or a decodable profile, never panic.
func TestProfileCodecRejectsCorruption(t *testing.T) {
	g := testGrid(t)
	m := mustSTS(t, g, 3)
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	blob := EncodeProfile(mustProfile(t, m, tr, ProfileOptions{Bounds: true, BucketSeconds: 30}))
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeProfile(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(blob))
		}
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x5b
		p, err := DecodeProfile(mut) // must not panic; error or success both fine
		_ = p
		_ = err
	}
	if _, err := DecodeProfile(nil); err == nil {
		t.Error("empty blob accepted")
	}
	if _, err := DecodeProfile([]byte{99}); err == nil {
		t.Error("unknown version accepted")
	}
}

// FuzzDecodeProfile hammers the decoder with arbitrary bytes: it must
// never panic or allocate beyond the blob's own size class, and anything
// it does accept must re-encode without panicking.
func FuzzDecodeProfile(f *testing.F) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -30, Y: -30}, geo.Point{X: 230, Y: 230}), 5)
	if err != nil {
		f.Fatal(err)
	}
	m, err := NewSTS(g, 3)
	if err != nil {
		f.Fatal(err)
	}
	tr := walk("a", geo.Point{Y: 100}, 1, 0, 10, 0, 8)
	p, err := m.Prepare(tr)
	if err != nil {
		f.Fatal(err)
	}
	var bounded []byte
	for _, opts := range []ProfileOptions{
		{BucketSeconds: 30},
		{BucketSeconds: 30, Bounds: true},
	} {
		prof, err := m.Profile(p, opts)
		if err != nil {
			f.Fatal(err)
		}
		bounded = EncodeProfile(prof)
		f.Add(bounded)
	}
	// The retired compact flag bit on an otherwise valid payload.
	retired := append([]byte(nil), bounded...)
	retired[1] |= 1
	f.Add(retired)
	f.Add([]byte{profileCodecVersion, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		prof, err := DecodeProfile(blob)
		if err != nil {
			return
		}
		_ = EncodeProfile(prof)
	})
}
