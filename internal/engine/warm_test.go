package engine_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// shiftT returns tr with every timestamp moved by dt seconds.
func shiftT(tr model.Trajectory, dt float64) model.Trajectory {
	out := model.Trajectory{ID: tr.ID, Samples: append([]model.Sample{}, tr.Samples...)}
	for i := range out.Samples {
		out.Samples[i].T += dt
	}
	return out
}

// TestTrimSweepDecodesOnlyExpiring pins the O(expiring) retention sweep:
// slots cache their record's first timestamp, so trajectories wholly at
// or after the cutoff are skipped without decoding, and a sweep with
// nothing to expire decodes zero records.
func TestTrimSweepDecodesOnlyExpiring(t *testing.T) {
	e, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 3 old trajectories (t=0..50) and 5 fresh ones (t=100..150).
	for i := 0; i < 3; i++ {
		if _, err := e.Add(walk(fmt.Sprintf("old%d", i), 100+float64(i)*20, 100, 4, 10, 6)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Add(shiftT(walk(fmt.Sprintf("new%d", i), 300+float64(i)*20, 100, 4, 10, 6), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing expires below t=0: the sweep must not touch a single record.
	st, err := e.TrimBefore(0)
	if err != nil {
		t.Fatal(err)
	}
	if st != (engine.TrimStats{}) {
		t.Fatalf("no-op sweep decoded records: %+v", st)
	}
	// Only the 3 old trajectories start before t=60; the 5 fresh ones must
	// be skipped without a decode.
	st, err = e.TrimBefore(60)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decoded != 3 || st.Removed != 3 || st.Trimmed != 0 {
		t.Fatalf("sweep stats %+v, want 3 decoded = 3 removed", st)
	}
	// Idempotent and still decode-free.
	st, err = e.TrimBefore(60)
	if err != nil || st != (engine.TrimStats{}) {
		t.Fatalf("second sweep: %+v, %v", st, err)
	}
	// A straddler's post-trim minT reflects its new head: a sweep below it
	// decodes nothing, a sweep above it decodes exactly one record.
	if _, err := e.Add(walk("straddler", 500, 100, 4, 10, 12)); err != nil { // t=0..110
		t.Fatal(err)
	}
	st, err = e.TrimBefore(45)
	if err != nil || st.Decoded != 1 || st.Trimmed != 1 || st.DroppedSamples != 5 {
		t.Fatalf("straddle sweep: %+v, %v", st, err)
	}
	if st, err = e.TrimBefore(45); err != nil || st != (engine.TrimStats{}) {
		t.Fatalf("post-straddle sweep decoded: %+v, %v", st, err)
	}
	// Append never lowers a record's first timestamp, so the cached minT
	// stays valid and the sweep stays decode-free.
	tr, _ := e.Get("straddler")
	if _, err := e.Append("straddler", tailOf(tr, 2)); err != nil {
		t.Fatal(err)
	}
	if st, err = e.TrimBefore(45); err != nil || st != (engine.TrimStats{}) {
		t.Fatalf("post-append sweep decoded: %+v, %v", st, err)
	}
}

// TestMutationsForgetDerivedState pins the derived-state lifecycle of the
// two in-place mutations: a retention sweep and an append forget the
// superseded generation's cached prepared state and profiles, build
// nothing, and leave the next query to rebuild exactly the superseded
// records — which then score bit-identically to a fresh engine over the
// same samples.
func TestMutationsForgetDerivedState(t *testing.T) {
	const (
		cutoff     = 25.0
		superseded = 6
	)
	// Exhaustive scoring builds every record's state in each cache the
	// engine scores through, so each record holds exactly one entry there.
	opts := engine.TopKOptions{K: 8, MinScore: math.Inf(-1), Exhaustive: true}
	query := walk("q", 100, 100, 4, 10, 20) // t=0..190: overlaps everything
	for _, mut := range []struct {
		name string
		// apply supersedes the first 6 records and returns every record's
		// final samples.
		apply func(t *testing.T, svc engine.Service, corpus []model.Trajectory) []model.Trajectory
	}{
		{"trim", func(t *testing.T, svc engine.Service, corpus []model.Trajectory) []model.Trajectory {
			st, err := svc.TrimBefore(cutoff)
			if err != nil {
				t.Fatal(err)
			}
			if st.Trimmed != superseded || st.Removed != 0 || st.Decoded != superseded {
				t.Fatalf("trim stats %+v, want %d trimmed, %d decoded", st, superseded, superseded)
			}
			final := append([]model.Trajectory(nil), corpus...)
			for i := 0; i < superseded; i++ {
				final[i].Samples = corpus[i].Samples[3:] // t=0..20 expire
			}
			return final
		}},
		{"append", func(t *testing.T, svc engine.Service, corpus []model.Trajectory) []model.Trajectory {
			final := append([]model.Trajectory(nil), corpus...)
			for i := 0; i < superseded; i++ {
				tail := tailOf(corpus[i], 2)
				if _, err := svc.Append(corpus[i].ID, tail); err != nil {
					t.Fatal(err)
				}
				final[i].Samples = append(append([]model.Sample{}, corpus[i].Samples...), tail...)
			}
			return final
		}},
	} {
		t.Run(mut.name, func(t *testing.T) {
			for name, svc := range appendEngines(t) {
				t.Run(name, func(t *testing.T) {
					// 6 straddlers (t=0..90) and 2 fresh trajectories
					// (t=100..150), all overlapping the query.
					var corpus []model.Trajectory
					for i := 0; i < superseded; i++ {
						corpus = append(corpus, walk(fmt.Sprintf("s%d", i), 100+float64(i)*10, 100, 4, 10, 10))
					}
					for i := 0; i < 2; i++ {
						corpus = append(corpus, shiftT(walk(fmt.Sprintf("f%d", i), 160+float64(i)*10, 100, 4, 10, 6), 100))
					}
					for _, tr := range corpus {
						if _, err := svc.Add(tr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := svc.TopKOpts(context.Background(), query, opts); err != nil {
						t.Fatal(err)
					}
					prep0, prof0 := svc.CacheStats(), svc.ProfileCacheStats()

					final := mut.apply(t, svc, corpus)

					// Exact engines score through the prepared cache only;
					// profiled ones through both.
					profHeld := 0
					if svc.Profiled() {
						profHeld = superseded
					}
					prep, prof := svc.CacheStats(), svc.ProfileCacheStats()
					if prep.Misses != prep0.Misses || prof.Misses != prof0.Misses {
						t.Fatalf("%s built derived state: prepared misses %d -> %d, profile misses %d -> %d",
							mut.name, prep0.Misses, prep.Misses, prof0.Misses, prof.Misses)
					}
					if prep.Size != prep0.Size-superseded || prof.Size != prof0.Size-profHeld {
						t.Fatalf("%s kept superseded state: prepared size %d -> %d (want -%d), profile size %d -> %d (want -%d)",
							mut.name, prep0.Size, prep.Size, superseded, prof0.Size, prof.Size, profHeld)
					}

					got, err := svc.TopKOpts(context.Background(), query, opts)
					if err != nil {
						t.Fatal(err)
					}
					prep1, prof1 := svc.CacheStats(), svc.ProfileCacheStats()
					if prep1.Misses-prep.Misses != superseded || prof1.Misses-prof.Misses != uint64(profHeld) {
						t.Fatalf("next query after %s: %d prepared and %d profile misses, want %d and %d",
							mut.name, prep1.Misses-prep.Misses, prof1.Misses-prof.Misses, superseded, profHeld)
					}

					fresh, err := engine.New(svc.Scorer(), appendOpts(svc.Profiled()))
					if err != nil {
						t.Fatal(err)
					}
					defer fresh.Close()
					for _, tr := range final {
						if _, err := fresh.Add(tr); err != nil {
							t.Fatal(err)
						}
					}
					want, err := fresh.TopKOpts(context.Background(), query, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("TopK sizes after %s: %d vs %d", mut.name, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
							t.Fatalf("TopK[%d] after %s: %+v vs fresh %+v", i, mut.name, got[i], want[i])
						}
					}
				})
			}
		})
	}
}

// warmDir populates a persistent profiled engine, runs a query so every
// corpus profile is cached, snapshots (capturing the sidecar), and
// returns the pre-restart top-k for comparison.
func warmDir(t *testing.T, dir string, opts engine.Options, query model.Trajectory) []engine.Match {
	t.Helper()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	opts.Corpus = st
	e, err := engine.New(testScorer(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Add(walk(fmt.Sprintf("t%02d", i), 100+float64(i)*12, 100, 4, 10, 8)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.TopK(context.Background(), query, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestWarmRestart pins the sidecar round trip end to end: an engine
// reopened over a snapshotted store starts with every corpus profile
// already cached — zero rebuild misses — and answers the standing query
// bit-identically to both its pre-restart self and a cold engine.
func TestWarmRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts engine.Options
	}{
		{"profiled", engine.Options{Profile: &core.ProfileOptions{BucketSeconds: 30}}},
		{"exact", engine.Options{}}, // bound profiles only
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			query := walk("q", 120, 100, 4, 10, 8)
			want := warmDir(t, dir, tc.opts, query)

			st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			o := tc.opts
			o.Corpus = st
			e, err := engine.New(testScorer(t), o)
			if err != nil {
				t.Fatal(err)
			}
			if e.WarmLoaded() != 10 {
				t.Fatalf("WarmLoaded=%d, want 10", e.WarmLoaded())
			}
			if info, ok := e.Recovery(); !ok || info.WarmProfiles != 10 {
				t.Fatalf("recovery warm profiles: %+v, %v", info, ok)
			}
			if s := e.ProfileCacheStats(); s.Size != 10 || s.Misses != 0 {
				t.Fatalf("profile cache after warm restart: %+v", s)
			}
			got, err := e.TopK(context.Background(), query, 6)
			if err != nil {
				t.Fatal(err)
			}
			// Only the query itself may have missed the caches; all 10
			// corpus profiles must have been served warm.
			if s := e.ProfileCacheStats(); s.Misses > 1 || s.Hits < 10 {
				t.Fatalf("warm query rebuilt corpus profiles: %+v", s)
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("warm TopK[%d]: %+v vs pre-restart %+v", i, got[i], want[i])
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			// A cold engine (sidecar ignored) must agree bit-for-bit.
			st2, err := store.Open(dir, store.Options{SnapshotEvery: -1, DisableSidecar: true})
			if err != nil {
				t.Fatal(err)
			}
			o.Corpus = st2
			cold, err := engine.New(testScorer(t), o)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			if cold.WarmLoaded() != 0 {
				t.Fatalf("cold engine warm-loaded %d profiles", cold.WarmLoaded())
			}
			coldTop, err := cold.TopK(context.Background(), query, 6)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if coldTop[i].ID != want[i].ID || coldTop[i].Score != want[i].Score {
					t.Fatalf("cold TopK[%d]: %+v vs %+v", i, coldTop[i], want[i])
				}
			}
		})
	}
}

// TestWarmRestartConfigGate pins the warm-load validation: a sidecar
// written under another bucket width must not warm the engine (the
// profiles would be wrong, not just stale), and neither may an entry in the
// retired float32 storage layout, which DecodeProfile refuses. A profiled
// engine must not install an exact engine's bound-only profiles, which lack
// the entries it scores with; an exact engine installs a profiled engine's
// full ones as their bound state alone, the profiles it would build
// itself. Either way the answers equal a cold engine's.
func TestWarmRestartConfigGate(t *testing.T) {
	query := walk("q", 120, 100, 4, 10, 8)
	reopen := func(t *testing.T, dir string, opts engine.Options) *engine.Engine {
		t.Helper()
		st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		opts.Corpus = st
		e, err := engine.New(testScorer(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		if _, err := e.TopK(context.Background(), query, 6); err != nil {
			t.Fatal(err)
		}
		return e
	}
	t.Run("width", func(t *testing.T) {
		dir := t.TempDir()
		warmDir(t, dir, engine.Options{Profile: &core.ProfileOptions{BucketSeconds: 30}}, query)
		if e := reopen(t, dir, engine.Options{Profile: &core.ProfileOptions{BucketSeconds: 60}}); e.WarmLoaded() != 0 {
			t.Fatalf("width mismatch warm-loaded %d profiles", e.WarmLoaded())
		}
	})
	t.Run("mode", func(t *testing.T) {
		profiled := engine.Options{Profile: &core.ProfileOptions{BucketSeconds: 30}}
		for _, tc := range []struct {
			name        string
			write, read engine.Options
			loaded      int
		}{
			{"exact-to-profiled", engine.Options{}, profiled, 0},
			{"profiled-to-exact", profiled, engine.Options{}, 10},
		} {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				warmDir(t, dir, tc.write, query)
				var tops [2][]engine.Match
				for i, disable := range []bool{false, true} {
					st, err := store.Open(dir, store.Options{SnapshotEvery: -1, DisableSidecar: disable})
					if err != nil {
						t.Fatal(err)
					}
					o := tc.read
					o.Corpus = st
					e, err := engine.New(testScorer(t), o)
					if err != nil {
						t.Fatal(err)
					}
					want := tc.loaded
					if disable {
						want = 0
					}
					if e.WarmLoaded() != want {
						t.Fatalf("sidecar disabled %v: WarmLoaded=%d, want %d", disable, e.WarmLoaded(), want)
					}
					// An engine keeps the profiles it would build itself:
					// an exact one the bound state alone.
					if exact := !e.Profiled(); !disable {
						for _, p := range e.CachedProfiles() {
							if p.BoundsOnly() != exact {
								t.Fatalf("warm-loaded %q with bound-only %v into an engine with exact=%v", p.ID, p.BoundsOnly(), exact)
							}
						}
					}
					if tops[i], err = e.TopK(context.Background(), query, 6); err != nil {
						t.Fatal(err)
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
				}
				warm, cold := tops[0], tops[1]
				if len(warm) != 6 || len(cold) != 6 {
					t.Fatalf("top-k sizes %d (warm) and %d (cold), want 6", len(warm), len(cold))
				}
				for i := range cold {
					if warm[i].ID != cold[i].ID || warm[i].Score != cold[i].Score {
						t.Fatalf("TopK[%d]: %+v after the reopen, cold engine %+v", i, warm[i], cold[i])
					}
				}
				if cold[0].Score <= 0 {
					t.Fatalf("best cold score %v; the comparison needs nonzero scores", cold[0].Score)
				}
			})
		}
	})
	t.Run("storage", func(t *testing.T) {
		// Every other entry carries flag bit 0, which marked float32
		// profiles; the untouched entries prove the sidecar is otherwise
		// valid for an exact engine.
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		m := testScorer(t).Measure()
		var entries []store.SidecarEntry
		for i := 0; i < 10; i++ {
			tr := walk(fmt.Sprintf("t%02d", i), 100+float64(i)*12, 100, 4, 10, 8)
			ref, err := st.Add(tr)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.Prepare(tr)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := m.Profile(p, core.ProfileOptions{Bounds: true})
			if err != nil {
				t.Fatal(err)
			}
			blob := core.EncodeProfile(prof)
			if i%2 == 0 {
				blob[1] |= 1
			}
			entries = append(entries, store.SidecarEntry{ID: tr.ID, Gen: ref.Gen, Blob: blob})
		}
		st.SetSidecarSource(func() []store.SidecarEntry { return entries })
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if e := reopen(t, dir, engine.Options{}); e.WarmLoaded() != 5 {
			t.Fatalf("WarmLoaded=%d, want the 5 float64 entries", e.WarmLoaded())
		}
	})
}

// TestWarmRestartSharded pins the per-shard sidecar round trip: each
// shard persists and recovers its own profiles.snap, and the coordinator
// sums the warm-load counts.
func TestWarmRestartSharded(t *testing.T) {
	dir := t.TempDir()
	query := walk("q", 120, 100, 4, 10, 8)
	const shards = 3
	// ShardOptions records the stores it opens (indexed writes from
	// concurrent shard construction are race-free) so the test can
	// snapshot each shard before restarting.
	stores := make([]*store.Store, shards)
	open := func() *engine.Sharded {
		t.Helper()
		s, err := engine.NewSharded(testScorer(t), engine.ShardedOptions{
			Shards: shards,
			ShardOptions: func(shard int) (engine.Options, error) {
				st, err := store.Open(fmt.Sprintf("%s/shard-%d", dir, shard), store.Options{SnapshotEvery: -1})
				if err != nil {
					return engine.Options{}, err
				}
				stores[shard] = st
				return engine.Options{
					Profile: &core.ProfileOptions{BucketSeconds: 30},
					Corpus:  st,
				}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i := 0; i < 12; i++ {
		if _, err := s.Add(walk(fmt.Sprintf("t%02d", i), 100+float64(i)*10, 100, 4, 10, 8)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.TopK(context.Background(), query, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	if s2.WarmLoaded() != 12 {
		t.Fatalf("sharded WarmLoaded=%d, want 12", s2.WarmLoaded())
	}
	if st := s2.ProfileCacheStats(); st.Size != 12 || st.Misses != 0 {
		t.Fatalf("sharded profile cache after warm restart: %+v", st)
	}
	got, err := s2.TopK(context.Background(), query, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("sharded warm TopK[%d]: %+v vs %+v", i, got[i], want[i])
		}
	}
}
