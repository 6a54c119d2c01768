package stream_test

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

func testGrid(t *testing.T) *geo.Grid {
	t.Helper()
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 1100, Y: 1100}), 25)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testScorer(t *testing.T) *eval.STSScorer {
	t.Helper()
	m, err := core.NewSTS(testGrid(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	return eval.NewSTSScorer("STS", m)
}

// walk builds a straight trajectory of n samples starting at (x0, y0),
// advancing dx meters and dt seconds per sample.
func walk(id string, x0, y0, dx, dt float64, n int) model.Trajectory {
	tr := model.Trajectory{ID: id, Samples: make([]model.Sample, n)}
	for i := range tr.Samples {
		f := float64(i)
		tr.Samples[i] = model.Sample{Loc: geo.Point{X: x0 + f*dx, Y: y0}, T: f * dt}
	}
	return tr
}

// tailOf extends a walk with k more samples continuing its stride.
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

// streamOpts builds engine options, optionally profiled.
func streamOpts(profiled bool) engine.Options {
	var o engine.Options
	if profiled {
		o.Profile = &core.ProfileOptions{BucketSeconds: 30}
	}
	return o
}

// streamEngines builds the three engine flavors the streaming golden gate
// covers.
func streamEngines(t *testing.T) map[string]engine.Service {
	t.Helper()
	scorer := testScorer(t)
	exact, err := engine.New(scorer, streamOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := engine.New(scorer, streamOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.NewSharded(scorer, engine.ShardedOptions{
		Shards:       3,
		ShardOptions: func(int) (engine.Options, error) { return streamOpts(true), nil },
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

// TestStandingAlertsMatchOffline is the streaming correctness gate: every
// alert fired by the live append path must exactly match an offline
// thresholded re-evaluation of the same corpus state at the same theta —
// same members, same scores, no extras, no misses — on the exact,
// profiled, and sharded engines.
func TestStandingAlertsMatchOffline(t *testing.T) {
	const theta = 0.01
	base := make([]model.Trajectory, 0, 8)
	for i := 0; i < 8; i++ {
		// Interleaved lanes: some pairs co-locate, most do not.
		base = append(base, walk(fmt.Sprintf("t%02d", i), 100+float64(i%3)*8, 100+float64(i/3)*300, 4, 15, 6))
	}
	members := []string{"t00", "t01", "t02", "ghost"} // ghost is never ingested

	for name, svc := range streamEngines(t) {
		t.Run(name, func(t *testing.T) {
			for _, tr := range base {
				if _, err := svc.Add(tr); err != nil {
					t.Fatal(err)
				}
			}
			reg, err := stream.NewRegistry(svc, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			if err := reg.Set(stream.Watch{Name: "lane", Members: members, Theta: theta}); err != nil {
				t.Fatal(err)
			}

			// Shadow corpus replay: after every live append, rebuild a fresh
			// reference engine from the shadow state and re-evaluate the
			// standing query offline.
			shadow := make(map[string]model.Trajectory, len(base))
			for _, tr := range base {
				shadow[tr.ID] = tr
			}
			for round := 0; round < 3; round++ {
				for _, tr := range base {
					cur := shadow[tr.ID]
					tail := tailOf(cur, 1+round%2)
					if _, err := svc.Append(tr.ID, tail); err != nil {
						t.Fatal(err)
					}
					grown := model.Trajectory{ID: tr.ID, Samples: append(append([]model.Sample{}, cur.Samples...), tail...)}
					shadow[tr.ID] = grown

					got, err := reg.OnAppend(context.Background(), grown, len(tail))
					if err != nil {
						t.Fatal(err)
					}
					want := offlineAlerts(t, svc, shadow, grown, members, theta)
					if len(got) != len(want) {
						t.Fatalf("append %s round %d: %d alerts, want %d\n got %+v\nwant %+v",
							tr.ID, round, len(got), len(want), got, want)
					}
					for i := range want {
						if got[i].Member != want[i].Member || got[i].Score != want[i].Score {
							t.Fatalf("append %s round %d alert %d: got %+v want %+v", tr.ID, round, i, got[i], want[i])
						}
						if got[i].ID != tr.ID || got[i].N != len(grown.Samples) {
							t.Fatalf("alert metadata: %+v", got[i])
						}
					}
				}
			}
			st := reg.Stats()
			if st.Appends != 24 || st.Evals != 24 {
				t.Fatalf("stats: %+v", st)
			}
			if st.Pairs == 0 || st.Alerts == 0 || st.Subthreshold == 0 {
				t.Fatalf("expected a mix of alerts and sub-threshold pairs: %+v", st)
			}
			if st.Pairs != st.Alerts+st.Subthreshold {
				t.Fatalf("pair accounting: %d != %d + %d", st.Pairs, st.Alerts, st.Subthreshold)
			}
			if hw, ok := reg.HighWater(); !ok || hw <= 0 {
				t.Fatalf("high water: %v %v", hw, ok)
			}
			if st.EvalSeconds.Count != st.Evals {
				t.Fatalf("eval histogram count %d, want %d", st.EvalSeconds.Count, st.Evals)
			}
		})
	}
}

// offlineAlerts re-derives the expected alerts for one append event from a
// fresh engine built over the shadow corpus — the offline ground truth the
// streaming path must match bit for bit.
func offlineAlerts(t *testing.T, svc engine.Service, shadow map[string]model.Trajectory, grown model.Trajectory, members []string, theta float64) []stream.Alert {
	t.Helper()
	fresh, err := engine.New(svc.Scorer(), streamOpts(svc.Profiled()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, tr := range shadow {
		if _, err := fresh.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	var cols model.Dataset
	var names []string
	for _, m := range members {
		if m == grown.ID {
			continue
		}
		if mt, ok := fresh.Get(m); ok {
			cols = append(cols, mt)
			names = append(names, m)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	scores, err := fresh.ScoreBatchMin(context.Background(), model.Dataset{grown}, cols, nil, theta)
	if err != nil {
		t.Fatal(err)
	}
	var out []stream.Alert
	for j, s := range scores[0] {
		if math.IsInf(s, -1) || math.IsNaN(s) || s < theta {
			continue
		}
		out = append(out, stream.Alert{Watch: "lane", ID: grown.ID, Member: names[j], Score: s, N: len(grown.Samples)})
	}
	return out
}

// TestAlertDebounce pins the per-pair debounce: a pair that clears theta
// fires once, then stays silent until the trajectory's stream clock
// advances past the window. The window resolves per watch (0 inherits the
// registry default, negative disables), suppressed alerts are counted but
// never delivered to webhooks, and the registry roll-up sums per-watch
// suppression.
func TestAlertDebounce(t *testing.T) {
	var sinkHits atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sinkHits.Add(1)
	}))
	defer srv.Close()

	eng, err := engine.New(testScorer(t), streamOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a := walk("a", 100, 100, 4, 15, 6) // last sample at t=75, stride 15s
	b := walk("b", 102, 100, 4, 15, 6)
	for _, tr := range []model.Trajectory{a, b} {
		if _, err := eng.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := stream.NewRegistry(eng, stream.Options{AlertDebounceSeconds: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, w := range []stream.Watch{
		{Name: "def", Members: []string{"b"}, Theta: 0.001, Webhook: srv.URL},
		{Name: "burst", Members: []string{"b"}, Theta: 0.001, DebounceSeconds: 14},
		{Name: "off", Members: []string{"b"}, Theta: 0.001, DebounceSeconds: -1},
		{Name: "slow", Members: []string{"b"}, Theta: 0.001, DebounceSeconds: 1000},
	} {
		if err := reg.Set(w); err != nil {
			t.Fatal(err)
		}
	}

	// Five appends of one sample each: stream clock hits 90, 105, 120,
	// 135, 150. With the 40s default only 90 and 135 clear the window;
	// the 14s override clears every 15s stride; negative never debounces;
	// the 1000s window fires exactly once.
	firedBy := make(map[string]int)
	cur := a
	for i := 0; i < 5; i++ {
		tail := tailOf(cur, 1)
		if _, err := eng.Append("a", tail); err != nil {
			t.Fatal(err)
		}
		cur = model.Trajectory{ID: "a", Samples: append(append([]model.Sample{}, cur.Samples...), tail...)}
		alerts, err := reg.OnAppend(context.Background(), cur, len(tail))
		if err != nil {
			t.Fatal(err)
		}
		for _, al := range alerts {
			firedBy[al.Watch]++
		}
	}

	wantFired := map[string]int{"def": 2, "burst": 5, "off": 5, "slow": 1}
	wantSupp := map[string]uint64{"def": 3, "burst": 0, "off": 0, "slow": 4}
	for name, want := range wantFired {
		if firedBy[name] != want {
			t.Fatalf("watch %s fired %d alerts, want %d (all: %v)", name, firedBy[name], want, firedBy)
		}
	}
	for _, ws := range reg.List() {
		if ws.Suppressed != wantSupp[ws.Name] {
			t.Fatalf("watch %s suppressed %d, want %d", ws.Name, ws.Suppressed, wantSupp[ws.Name])
		}
		if ws.Alerts != uint64(wantFired[ws.Name]) {
			t.Fatalf("watch %s alert counter %d, want %d", ws.Name, ws.Alerts, wantFired[ws.Name])
		}
	}
	st := reg.Stats()
	if st.Suppressed != 7 || st.Alerts != 13 {
		t.Fatalf("roll-up suppressed=%d alerts=%d, want 7/13", st.Suppressed, st.Alerts)
	}

	// Suppressed alerts must never reach the webhook: only "def"'s two
	// fired alerts are queued for delivery.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sinkHits.Load() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // would catch a third, spurious delivery
	if got := sinkHits.Load(); got != 2 {
		t.Fatalf("webhook delivered %d alerts, want 2", got)
	}
}

func TestDebounceValidation(t *testing.T) {
	svc, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := stream.NewRegistry(svc, stream.Options{AlertDebounceSeconds: bad}); err == nil {
			t.Fatalf("registry accepted AlertDebounceSeconds=%v", bad)
		}
	}
	reg, err := stream.NewRegistry(svc, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := stream.Watch{Name: "w", Members: []string{"a"}, Theta: 0.5, DebounceSeconds: bad}
		if err := reg.Set(w); err == nil {
			t.Fatalf("watch accepted DebounceSeconds=%v", bad)
		}
	}
}

func TestWatchValidationAndCRUD(t *testing.T) {
	svc, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reg, err := stream.NewRegistry(svc, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	bad := []stream.Watch{
		{Name: "", Members: []string{"a"}, Theta: 0.5},
		{Name: "w", Members: nil, Theta: 0.5},
		{Name: "w", Members: []string{""}, Theta: 0.5},
		{Name: "w", Members: []string{"a", "a"}, Theta: 0.5},
		{Name: "w", Members: []string{"a"}, Theta: 0},
		{Name: "w", Members: []string{"a"}, Theta: 1.5},
		{Name: "w", Members: []string{"a"}, Theta: math.NaN()},
	}
	for i, w := range bad {
		if err := reg.Set(w); err == nil {
			t.Fatalf("bad watch %d accepted: %+v", i, w)
		}
	}

	if err := reg.Set(stream.Watch{Name: "b", Members: []string{"x"}, Theta: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Set(stream.Watch{Name: "a", Members: []string{"x", "y"}, Theta: 0.4}); err != nil {
		t.Fatal(err)
	}
	// Upsert replaces config in place.
	if err := reg.Set(stream.Watch{Name: "b", Members: []string{"x", "y", "z"}, Theta: 0.3}); err != nil {
		t.Fatal(err)
	}
	ws := reg.List()
	if len(ws) != 2 || ws[0].Name != "a" || ws[1].Name != "b" {
		t.Fatalf("list: %+v", ws)
	}
	if ws[1].Members != 3 || ws[1].Theta != 0.3 {
		t.Fatalf("upsert did not replace config: %+v", ws[1])
	}
	if got, ok := reg.Get("a"); !ok || got.Theta != 0.4 {
		t.Fatalf("get: %+v %v", got, ok)
	}
	if err := reg.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("a"); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, ok := reg.Get("a"); ok {
		t.Fatal("deleted watch still present")
	}
}

// TestWebhookDelivery pins the delivery loop: transient failures retry
// with backoff until success, persistent failures dead-letter after
// MaxAttempts, and the counters record each outcome.
func TestWebhookDelivery(t *testing.T) {
	var flakyHits, sinkHits atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/flaky", func(w http.ResponseWriter, r *http.Request) {
		if flakyHits.Add(1) <= 2 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		sinkHits.Add(1)
	})
	mux.HandleFunc("/dead", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "never", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	eng, err := engine.New(testScorer(t), streamOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a := walk("a", 100, 100, 4, 15, 6)
	b := walk("b", 102, 100, 4, 15, 6)
	for _, tr := range []model.Trajectory{a, b} {
		if _, err := eng.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := stream.NewRegistry(eng, stream.Options{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, w := range []stream.Watch{
		{Name: "flaky", Members: []string{"b"}, Theta: 0.001, Webhook: srv.URL + "/flaky"},
		{Name: "dead", Members: []string{"b"}, Theta: 0.001, Webhook: srv.URL + "/dead"},
	} {
		if err := reg.Set(w); err != nil {
			t.Fatal(err)
		}
	}

	tail := tailOf(a, 2)
	if _, err := eng.Append("a", tail); err != nil {
		t.Fatal(err)
	}
	grown, _ := eng.Get("a")
	alerts, err := reg.OnAppend(context.Background(), grown, len(tail))
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 2 {
		t.Fatalf("expected one alert per watch, got %+v", alerts)
	}

	deadline := time.Now().Add(10 * time.Second)
	var flaky, dead stream.WatchStats
	for time.Now().Before(deadline) {
		byName := make(map[string]stream.WatchStats)
		for _, w := range reg.List() {
			byName[w.Name] = w
		}
		flaky, dead = byName["flaky"], byName["dead"]
		if flaky.Delivered == 1 && dead.DeadLettered == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if flaky.Delivered != 1 || flaky.Retries != 2 || flaky.DeadLettered != 0 {
		t.Fatalf("flaky watch: %+v", flaky)
	}
	if sinkHits.Load() != 1 {
		t.Fatalf("webhook sink hit %d times", sinkHits.Load())
	}
	if dead.Delivered != 0 || dead.DeadLettered != 1 || dead.Retries != 2 {
		t.Fatalf("dead watch: %+v", dead)
	}
}

func TestWatchPersistence(t *testing.T) {
	dir := t.TempDir()
	svc, err := engine.New(testScorer(t), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reg, err := stream.NewRegistry(svc, stream.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []stream.Watch{
		{Name: "keep", Members: []string{"a", "b"}, Theta: 0.25, Webhook: "http://sink.example/hook"},
		{Name: "drop", Members: []string{"c"}, Theta: 0.5},
	} {
		if err := reg.Set(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := stream.NewRegistry(svc, stream.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	ws := reg2.List()
	if len(ws) != 1 || ws[0].Name != "keep" || ws[0].Members != 2 {
		t.Fatalf("restart lost watch config: %+v", ws)
	}
	got, ok := reg2.Get("keep")
	if !ok || got.Theta != 0.25 || got.Webhook != "http://sink.example/hook" ||
		len(got.Members) != 2 || got.Members[0] != "a" || got.Members[1] != "b" {
		t.Fatalf("restart mangled watch: %+v", got)
	}

	// A write that cannot be published (a directory squats on the file's
	// name, so the rename fails) fails the Set and leaves no temp file.
	squat := t.TempDir()
	reg3, err := stream.NewRegistry(svc, stream.Options{Dir: squat})
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if err := os.Mkdir(filepath.Join(squat, "watches.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := reg3.Set(stream.Watch{Name: "lost", Members: []string{"a"}, Theta: 0.5}); err == nil {
		t.Fatal("Set succeeded although the watchlist could not be published")
	}
	if _, err := os.Stat(filepath.Join(squat, "watches.json.tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("watches.json.tmp left behind (stat err %v)", err)
	}
}

// TestConcurrentAppendWatch races appends + standing evaluation against
// watch registration, deletion, and stats reads — the stream half of the
// streaming -race stress gate.
func TestConcurrentAppendWatch(t *testing.T) {
	eng, err := engine.New(testScorer(t), streamOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	trs := make([]model.Trajectory, 6)
	for i := range trs {
		trs[i] = walk(fmt.Sprintf("t%02d", i), 100+float64(i)*6, 100, 4, 15, 6)
		if _, err := eng.Add(trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := stream.NewRegistry(eng, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Set(stream.Watch{Name: "w0", Members: []string{"t00", "t01"}, Theta: 0.001}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(tr model.Trajectory) {
			defer wg.Done()
			cur := tr
			for r := 0; r < 8; r++ {
				tail := tailOf(cur, 1)
				if _, err := eng.Append(tr.ID, tail); err != nil {
					t.Error(err)
					return
				}
				cur = model.Trajectory{ID: tr.ID, Samples: append(append([]model.Sample{}, cur.Samples...), tail...)}
				if _, err := reg.OnAppend(context.Background(), cur, len(tail)); err != nil {
					t.Error(err)
					return
				}
			}
		}(trs[i])
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			name := fmt.Sprintf("w%d", 1+r%3)
			if err := reg.Set(stream.Watch{Name: name, Members: []string{"t02", "t03"}, Theta: 0.01}); err != nil {
				t.Error(err)
				return
			}
			if r%3 == 2 {
				_ = reg.Delete(name) // racing deletes may miss; only data races matter here
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			reg.List()
			reg.Stats()
			reg.HighWater()
		}
	}()
	wg.Wait()
	st := reg.Stats()
	if st.Appends != 48 {
		t.Fatalf("appends: %+v", st)
	}
}

// TestConcurrentTrimAppendEvalSnapshot is the retention half of the
// streaming -race gate: retention sweeps (TrimBefore) race appends,
// standing-query evaluation (with a debounce window, so the per-pair
// memory is hammered from every appender), snapshots of the backing
// store, and stats reads — all against one persistent profiled engine.
func TestConcurrentTrimAppendEvalSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	opts := streamOpts(true)
	opts.Corpus = st
	eng, err := engine.New(testScorer(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	trs := make([]model.Trajectory, 6)
	for i := range trs {
		trs[i] = walk(fmt.Sprintf("t%02d", i), 100+float64(i)*6, 100, 4, 15, 6)
		if _, err := eng.Add(trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := stream.NewRegistry(eng, stream.Options{AlertDebounceSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Set(stream.Watch{Name: "w0", Members: []string{"t00", "t01", "t02"}, Theta: 0.001}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(tr model.Trajectory) {
			defer wg.Done()
			cur := tr
			for r := 0; r < 8; r++ {
				tail := tailOf(cur, 1)
				if _, err := eng.Append(tr.ID, tail); err != nil {
					t.Error(err)
					return
				}
				cur = model.Trajectory{ID: tr.ID, Samples: append(append([]model.Sample{}, cur.Samples...), tail...)}
				if _, err := reg.OnAppend(context.Background(), cur, len(tail)); err != nil {
					t.Error(err)
					return
				}
			}
		}(trs[i])
	}
	wg.Add(3)
	go func() {
		// Retention sweeps with a rising cutoff that only ever trims
		// heads: every trajectory keeps its tail past t=75, so appenders
		// never lose their target.
		defer wg.Done()
		for r := 0; r < 12; r++ {
			if _, err := eng.TrimBefore(float64(5 * (r % 8))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 6; r++ {
			if err := st.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			reg.Stats()
			eng.StoreStats()
			eng.ProfileCacheStats()
		}
	}()
	wg.Wait()

	if st := reg.Stats(); st.Appends != 48 {
		t.Fatalf("appends: %+v", st)
	}
	// Standing evals score decoded member copies as external data, so they
	// warm only gen-0 entries the sidecar skips; a resident top-k query
	// builds the persistable per-ref profiles before the final snapshot.
	if _, err := eng.TopK(context.Background(), walk("q", 100, 100, 4, 15, 10), 6); err != nil {
		t.Fatal(err)
	}
	// The final snapshot-side state must reopen warm and intact.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	opts2 := streamOpts(true)
	opts2.Corpus = st2
	eng2, err := engine.New(testScorer(t), opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.Len() != len(trs) {
		t.Fatalf("reopened corpus has %d trajectories, want %d", eng2.Len(), len(trs))
	}
	if eng2.WarmLoaded() == 0 {
		t.Fatal("reopen after snapshot loaded no warm profiles")
	}
}
