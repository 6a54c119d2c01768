package engine_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// tailOf extends a walk: k more samples continuing its stride.
func tailOf(tr model.Trajectory, k int) []model.Sample {
	last := tr.Samples[len(tr.Samples)-1]
	prev := tr.Samples[len(tr.Samples)-2]
	dx, dt := last.Loc.X-prev.Loc.X, last.T-prev.T
	out := make([]model.Sample, k)
	for i := range out {
		f := float64(i + 1)
		out[i] = model.Sample{T: last.T + f*dt, Loc: last.Loc}
		out[i].Loc.X += f * dx
	}
	return out
}

// appendOpts builds engine options, optionally profiled — every engine in
// the streaming correctness gate (and the fresh reference engine it is
// compared against) uses identical options.
func appendOpts(profiled bool) engine.Options {
	var o engine.Options
	if profiled {
		o.Profile = &core.ProfileOptions{BucketSeconds: 30}
	}
	return o
}

// appendEngines builds the three engine flavors the streaming correctness
// gate covers: exact, profiled, and sharded-profiled.
func appendEngines(t *testing.T) map[string]engine.Service {
	t.Helper()
	scorer := testScorer(t)
	exact, err := engine.New(scorer, appendOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := engine.New(scorer, appendOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:       3,
		ShardOptions: func(int) (engine.Options, error) { return appendOpts(true), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = exact.Close()
		_ = profiled.Close()
		_ = sharded.Close()
	})
	return map[string]engine.Service{"exact": exact, "profiled": profiled, "sharded": sharded}
}

// TestEngineAppendMatchesFreshEngine grows a corpus through Append — with
// warm caches, so the incremental derived-state path is exercised — and
// requires every query against it to exactly match a fresh engine built
// from the final trajectories.
func TestEngineAppendMatchesFreshEngine(t *testing.T) {
	base := make([]model.Trajectory, 0, 10)
	for i := 0; i < 10; i++ {
		base = append(base, walk(fmt.Sprintf("t%02d", i), 100+float64(i)*30, 100+float64(i)*11, 4, 15, 6))
	}
	query := walk("q", 160, 120, 4, 15, 10)

	for name, svc := range appendEngines(t) {
		t.Run(name, func(t *testing.T) {
			final := make([]model.Trajectory, len(base))
			for _, tr := range base {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the derived-state caches so Append has old state to
			// maintain incrementally.
			if _, err := svc.TopK(context.Background(), query, 5); err != nil {
				t.Fatal(err)
			}
			for i, tr := range base {
				tail := tailOf(tr, 1+i%3)
				if _, err := svc.Append(tr.ID, tail); err != nil {
					t.Fatal(err)
				}
				grown := model.Trajectory{ID: tr.ID, Samples: append(append([]model.Sample{}, tr.Samples...), tail...)}
				final[i] = grown
				got, ok := svc.Get(tr.ID)
				if !ok || len(got.Samples) != len(grown.Samples) {
					t.Fatalf("Get(%s) after append: ok=%v n=%d want %d", tr.ID, ok, len(got.Samples), len(grown.Samples))
				}
			}
			if _, err := svc.Append("missing", tailOf(base[0], 1)); err == nil {
				t.Fatal("append to unknown id accepted")
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

			gotTop, err := svc.TopK(context.Background(), query, 8)
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := fresh.TopK(context.Background(), query, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotTop) != len(wantTop) {
				t.Fatalf("TopK sizes: %d vs %d", len(gotTop), len(wantTop))
			}
			for i := range gotTop {
				if gotTop[i].ID != wantTop[i].ID || gotTop[i].Score != wantTop[i].Score {
					t.Fatalf("TopK[%d]: %+v vs %+v", i, gotTop[i], wantTop[i])
				}
			}

			rows := model.Dataset{query}
			cols, err := svc.Subset(nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := svc.ScoreBatchMin(context.Background(), rows, cols, nil, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ScoreBatchMin(context.Background(), rows, cols, nil, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want[0] {
				if got[0][j] != want[0][j] && !(math.IsInf(got[0][j], -1) && math.IsInf(want[0][j], -1)) {
					t.Fatalf("ScoreBatchMin[%d] (%s): %v vs %v", j, cols[j].ID, got[0][j], want[0][j])
				}
			}
		})
	}
}

// TestEngineTrimBefore pins the retention sweep: whole-trajectory removal,
// head trimming, and stats.
func TestEngineTrimBefore(t *testing.T) {
	for name, svc := range appendEngines(t) {
		t.Run(name, func(t *testing.T) {
			// expired: spans t=0..50; straddler: 0..90 (5 samples before
			// t=60); fresh: 100..145.
			expired := walk("expired", 100, 100, 4, 10, 6)
			straddler := walk("straddler", 200, 200, 4, 10, 10)
			fresh := walk("fresh", 300, 300, 4, 10, 6)
			for i := range fresh.Samples {
				fresh.Samples[i].T += 100
			}
			for _, tr := range []model.Trajectory{expired, straddler, fresh} {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			st, err := svc.TrimBefore(60)
			if err != nil {
				t.Fatal(err)
			}
			if st.Removed != 1 || st.Trimmed != 1 || st.DroppedSamples != 6+6 {
				t.Fatalf("trim stats %+v", st)
			}
			if _, ok := svc.Get("expired"); ok {
				t.Fatal("expired trajectory survived")
			}
			got, ok := svc.Get("straddler")
			if !ok || len(got.Samples) != 4 || got.Samples[0].T != 60 {
				t.Fatalf("straddler after trim: ok=%v %+v", ok, got.Samples)
			}
			if got, _ := svc.Get("fresh"); len(got.Samples) != 6 {
				t.Fatal("fresh trajectory touched")
			}
			// Idempotent second sweep.
			st, err = svc.TrimBefore(60)
			if err != nil || st != (engine.TrimStats{}) {
				t.Fatalf("second sweep: %+v, %v", st, err)
			}
			// Queries keep working against trimmed state.
			if _, err := svc.TopK(context.Background(), walk("q", 205, 200, 4, 10, 8), 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentAppendTrimSnapshot races appends, retention sweeps,
// snapshots, and queries over a persistent store — the engine half of the
// streaming -race stress gate.
func TestConcurrentAppendTrimSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(testScorer(t), engine.Options{
		Profile: &core.ProfileOptions{BucketSeconds: 30},
		Corpus:  st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trs := make([]model.Trajectory, 8)
	for i := range trs {
		trs[i] = walk(fmt.Sprintf("t%02d", i), 100+float64(i)*40, 100, 4, 10, 6)
		if _, err := e.Add(trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	query := walk("q", 150, 100, 4, 10, 8)
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(tr model.Trajectory) {
			defer wg.Done()
			cur := tr
			for r := 0; r < 10; r++ {
				tail := tailOf(cur, 2)
				if _, err := e.Append(tr.ID, tail); err != nil {
					t.Error(err)
					return
				}
				cur = model.Trajectory{ID: tr.ID, Samples: append(append([]model.Sample{}, cur.Samples...), tail...)}
			}
		}(trs[i])
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 0; r < 5; r++ {
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 5; r++ {
			if _, err := e.TrimBefore(float64(r * 5)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			if _, err := e.TopK(context.Background(), query, 4); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Recovery must reproduce the exact post-race corpus.
	want := make(map[string]model.Trajectory)
	for _, id := range e.IDs() {
		tr, _ := e.Get(id)
		want[id] = model.Trajectory{ID: id, Samples: append([]model.Sample{}, tr.Samples...)}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engine.New(testScorer(t), engine.Options{Corpus: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Len() != len(want) {
		t.Fatalf("recovered %d trajectories, want %d", e2.Len(), len(want))
	}
	for id, tr := range want {
		got, ok := e2.Get(id)
		if !ok || len(got.Samples) != len(tr.Samples) {
			t.Fatalf("recovered %q: ok=%v n=%d want %d", id, ok, len(got.Samples), len(tr.Samples))
		}
		for i := range tr.Samples {
			if got.Samples[i] != tr.Samples[i] {
				t.Fatalf("recovered %q sample %d: %+v != %+v", id, i, got.Samples[i], tr.Samples[i])
			}
		}
	}
}
