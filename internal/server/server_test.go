package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/experiments"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/server"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// mallWorld builds the standard serving fixture: the mall scenario's noisy
// dataset, an exact STS measure over its grid, and an engine bound to an
// STS scorer. Nothing is ingested yet.
func mallWorld(t *testing.T, n int) (*core.Measure, *engine.Engine, model.Dataset) {
	t.Helper()
	sc := experiments.Mall(n, 1)
	grid, err := sc.Grid(sc.GridSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(grid, sc.Sigma(0))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, eng, sc.Base
}

func newTestServer(t *testing.T, eng engine.Service, opts server.Options) *httptest.Server {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	srv, err := server.New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues a request with a JSON body and decodes a JSON response.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestRoundTripMall is the acceptance round-trip: batch-ingest the mall
// dataset over HTTP, then check that served similarity and top-k scores
// equal the sts library's own scores to ≤ 1e-12.
func TestRoundTripMall(t *testing.T) {
	m, eng, ds := mallWorld(t, 8)
	ts := newTestServer(t, eng, server.Options{})

	var br api.BatchResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
		api.BatchRequest{Trajectories: api.FromDataset(ds)}, &br); code != http.StatusOK {
		t.Fatalf("batch ingest: code %d", code)
	}
	if br.Ingested != len(ds) || br.CorpusSize != len(ds) {
		t.Fatalf("batch response %+v, want ingested=corpus=%d", br, len(ds))
	}

	// Listing is the sorted ID set.
	var lr api.ListResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/trajectories", nil, &lr); code != http.StatusOK {
		t.Fatalf("list: code %d", code)
	}
	if lr.Count != len(ds) || !sort.StringsAreSorted(lr.IDs) {
		t.Fatalf("list response count=%d sorted=%v", lr.Count, sort.StringsAreSorted(lr.IDs))
	}

	// Served pairwise scores match direct library scores.
	pairs := 0
	for i := 0; i < len(ds) && pairs < 6; i++ {
		for j := i + 1; j < len(ds) && pairs < 6; j++ {
			pairs++
			var sr api.SimilarityResponse
			url := fmt.Sprintf("%s/v1/similarity?a=%s&b=%s", ts.URL, ds[i].ID, ds[j].ID)
			if code := doJSON(t, http.MethodGet, url, nil, &sr); code != http.StatusOK {
				t.Fatalf("similarity %s-%s: code %d", ds[i].ID, ds[j].ID, code)
			}
			want, err := m.Similarity(ds[i], ds[j])
			if err != nil {
				t.Fatal(err)
			}
			if sr.Score == nil {
				t.Fatalf("similarity %s-%s: null score, want %g", ds[i].ID, ds[j].ID, want)
			}
			if diff := math.Abs(*sr.Score - want); diff > 1e-12 {
				t.Fatalf("similarity %s-%s: served %g, library %g (|Δ|=%g > 1e-12)",
					ds[i].ID, ds[j].ID, *sr.Score, want, diff)
			}
		}
	}

	// Top-k excludes the query, ranks by descending score, and each served
	// score matches the library score of that pair.
	q := ds[0]
	var tr api.TopKResponse
	url := fmt.Sprintf("%s/v1/topk?id=%s&k=3", ts.URL, q.ID)
	if code := doJSON(t, http.MethodGet, url, nil, &tr); code != http.StatusOK {
		t.Fatalf("topk: code %d", code)
	}
	if len(tr.Matches) == 0 || len(tr.Matches) > 3 {
		t.Fatalf("topk returned %d matches", len(tr.Matches))
	}
	byID := make(map[string]model.Trajectory, len(ds))
	for _, tj := range ds {
		byID[tj.ID] = tj
	}
	for i, match := range tr.Matches {
		if match.ID == q.ID {
			t.Fatalf("topk match %d is the query itself", i)
		}
		if i > 0 && match.Score > tr.Matches[i-1].Score {
			t.Fatalf("topk not sorted: %v", tr.Matches)
		}
		want, err := m.Similarity(q, byID[match.ID])
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(match.Score - want); diff > 1e-12 {
			t.Fatalf("topk %s: served %g, library %g (|Δ|=%g > 1e-12)", match.ID, match.Score, want, diff)
		}
	}

	// Stats reflect the corpus and the build stamp.
	var st api.StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if st.CorpusSize != len(ds) || st.Version == "" || st.Profiled {
		t.Fatalf("stats %+v, want corpus=%d, version set, exact scoring", st, len(ds))
	}
	if st.Prepared.Hits+st.Prepared.Misses == 0 {
		t.Fatal("stats report no prepared-cache traffic after scoring")
	}

	// Delete shrinks the corpus; the deleted ID then 404s.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/trajectories/"+q.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: code %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/trajectories/"+q.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: code %d", code)
	}
}

// TestTopKHugeK pins that /v1/topk sizes nothing by the requested k: a k
// far past the corpus, up to math.MaxInt, answers 200 with every other
// record ranked.
func TestTopKHugeK(t *testing.T) {
	_, eng, ds := mallWorld(t, 8)
	for _, tr := range ds {
		if _, err := eng.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	ts := newTestServer(t, eng, server.Options{})
	q := ds[0].ID
	for _, k := range []string{"1125899906842624", "9223372036854775807"} {
		var tr api.TopKResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/topk?id="+q+"&k="+k, nil, &tr); code != http.StatusOK {
			t.Fatalf("k=%s: code %d", k, code)
		}
		seen := map[string]bool{}
		for _, m := range tr.Matches {
			seen[m.ID] = true
		}
		if len(tr.Matches) != len(ds)-1 || len(seen) != len(ds)-1 || seen[q] {
			t.Fatalf("k=%s: %d matches %v, want every record but the query once", k, len(tr.Matches), tr.Matches)
		}
	}
}

// TestServedProfiledEngine runs the round-trip against a profiled engine:
// served scores must equal the profiled library scorer's scores exactly.
func TestServedProfiledEngine(t *testing.T) {
	m, _, ds := mallWorld(t, 6)
	popts := core.ProfileOptions{BucketSeconds: 30}
	eng, err := engine.New(eval.NewSTSScorerProfiled("STS-P", m, popts), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, eng, server.Options{})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
		api.BatchRequest{Trajectories: api.FromDataset(ds)}, nil); code != http.StatusOK {
		t.Fatalf("batch ingest: code %d", code)
	}
	scorer := eval.NewSTSScorerProfiled("STS-P", m, popts)
	var sr api.SimilarityResponse
	url := fmt.Sprintf("%s/v1/similarity?a=%s&b=%s", ts.URL, ds[0].ID, ds[1].ID)
	if code := doJSON(t, http.MethodGet, url, nil, &sr); code != http.StatusOK {
		t.Fatalf("similarity: code %d", code)
	}
	want, err := scorer.Score(ds[0], ds[1])
	if err != nil {
		t.Fatal(err)
	}
	if sr.Score == nil || math.Abs(*sr.Score-want) > 1e-12 {
		t.Fatalf("profiled similarity: served %v, library %g", sr.Score, want)
	}
	var st api.StatsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK || !st.Profiled {
		t.Fatalf("stats: code %d, %+v — want profiled", code, st)
	}
	if st.Profile.Misses == 0 {
		t.Fatalf("profiled engine reports no profile-cache traffic: %+v", st.Profile)
	}
}

// TestProfileCacheVisibleOnExactEngine pins the default server
// configuration: an exact engine with pruning keeps a profile cache for its
// bound pass, so after one pruned top-k both /v1/stats (top-level and per
// shard) and /metrics report profile misses.
func TestProfileCacheVisibleOnExactEngine(t *testing.T) {
	m, single, ds := mallWorld(t, 8)
	sharded, err := engine.NewSharded(eval.NewSTSScorer("STS", m), engine.ShardedOptions{
		Shards:       2,
		ShardOptions: func(int) (engine.Options, error) { return engine.Options{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]engine.Service{"single": single, "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			ts := newTestServer(t, eng, server.Options{})
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
				api.BatchRequest{Trajectories: api.FromDataset(ds)}, nil); code != http.StatusOK {
				t.Fatalf("batch ingest: code %d", code)
			}
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/topk?id="+ds[0].ID+"&k=1", nil, nil); code != http.StatusOK {
				t.Fatalf("topk: code %d", code)
			}
			var st api.StatsResponse
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK || st.Profiled {
				t.Fatalf("stats: code %d, %+v — want an exact engine", code, st)
			}
			if st.Profile.Misses == 0 {
				t.Fatalf("/v1/stats profile_cache shows no misses: %+v", st.Profile)
			}
			var shardMisses uint64
			for _, sh := range st.Shards {
				if sh.Profile.Misses == 0 {
					t.Fatalf("shard %d profile_cache shows no misses: %+v", sh.Shard, sh.Profile)
				}
				shardMisses += sh.Profile.Misses
			}
			if len(st.Shards) > 0 && shardMisses != st.Profile.Misses {
				t.Fatalf("per-shard profile misses sum to %d, top-level %d", shardMisses, st.Profile.Misses)
			}
			want := fmt.Sprintf("sts_cache_misses_total{cache=\"profile\"} %d\n", st.Profile.Misses)
			if body := fetch(t, ts.URL+"/metrics"); !strings.Contains(body, want) {
				t.Fatalf("/metrics lacks %q", want)
			}
		})
	}
}

// TestLinkEndpoint links the mall's alternating-split halves over HTTP and
// checks the result against the library's engine-batch linker.
func TestLinkEndpoint(t *testing.T) {
	_, eng, _ := mallWorld(t, 6)
	sc := experiments.Mall(6, 1)
	// Ingest both halves under distinguishable IDs.
	var all []api.Trajectory
	var aIDs, bIDs []string
	for i, tj := range sc.D1 {
		w := api.FromTrajectory(tj)
		w.ID = fmt.Sprintf("a-%02d-%s", i, tj.ID)
		aIDs = append(aIDs, w.ID)
		all = append(all, w)
	}
	for i, tj := range sc.D2 {
		w := api.FromTrajectory(tj)
		w.ID = fmt.Sprintf("b-%02d-%s", i, tj.ID)
		bIDs = append(bIDs, w.ID)
		all = append(all, w)
	}
	ts := newTestServer(t, eng, server.Options{})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
		api.BatchRequest{Trajectories: all}, nil); code != http.StatusOK {
		t.Fatalf("batch ingest: code %d", code)
	}
	var lr api.LinkResponse
	req := api.LinkRequest{A: aIDs, B: bIDs, MaxSpeed: 10}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/link", req, &lr); code != http.StatusOK {
		t.Fatalf("link: code %d", code)
	}
	if len(lr.Links) == 0 {
		t.Fatal("link produced no pairs")
	}
	// Ground truth: a-i should link to b-i (same underlying pedestrian).
	correct := 0
	for _, l := range lr.Links {
		if strings.TrimPrefix(l.A, "a-")[:2] == strings.TrimPrefix(l.B, "b-")[:2] {
			correct++
		}
		if l.Score < 0 {
			t.Fatalf("link %+v has negative score", l)
		}
	}
	if correct*2 < len(lr.Links) {
		t.Fatalf("only %d/%d links correct", correct, len(lr.Links))
	}
}

// TestMalformedRequests covers the 4xx surface, including the strict
// RejectUnsorted ingestion semantics.
func TestMalformedRequests(t *testing.T) {
	_, eng, ds := mallWorld(t, 6)
	ts := newTestServer(t, eng, server.Options{Strict: true})

	put := func(id string, body string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/trajectories/"+id, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Malformed JSON.
	if code := put("x", "{nope"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code %d, want 400", code)
	}
	// Unknown field.
	if code := put("x", `{"samples": [[0,1,2]], "extra": true}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d, want 400", code)
	}
	// Out-of-order samples under strict ingestion.
	if code := put("x", `{"samples": [[10,0,0],[5,1,1]]}`); code != http.StatusBadRequest {
		t.Errorf("strict unsorted: code %d, want 400", code)
	}
	// Duplicate timestamps are rejected even without strict.
	if code := put("x", `{"samples": [[5,0,0],[5,1,1]]}`); code != http.StatusBadRequest {
		t.Errorf("duplicate timestamp: code %d, want 400", code)
	}
	// Empty trajectory.
	if code := put("x", `{"samples": []}`); code != http.StatusBadRequest {
		t.Errorf("empty trajectory: code %d, want 400", code)
	}
	// Non-finite coordinate survives JSON syntax but fails validation.
	if code := put("x", `{"samples": [[0,1e999,0]]}`); code != http.StatusBadRequest {
		t.Errorf("non-finite coordinate: code %d, want 400", code)
	}
	// Body/path ID mismatch.
	if code := put("x", `{"id": "y", "samples": [[0,1,2]]}`); code != http.StatusBadRequest {
		t.Errorf("id mismatch: code %d, want 400", code)
	}
	// Batch with a repeated ID.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch", api.BatchRequest{
		Trajectories: []api.Trajectory{
			{ID: "dup", Samples: [][3]float64{{0, 1, 2}}},
			{ID: "dup", Samples: [][3]float64{{1, 2, 3}}},
		},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("batch repeated id: code %d, want 400", code)
	}
	// Unknown IDs 404.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/similarity?a=nope&b=nada", nil, nil); code != http.StatusNotFound {
		t.Errorf("similarity unknown ids: code %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/trajectories/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("delete unknown: code %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/topk?id=nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("topk unknown: code %d, want 404", code)
	}
	// Parameter validation.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/similarity?a=only", nil, nil); code != http.StatusBadRequest {
		t.Errorf("similarity missing b: code %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/topk", nil, nil); code != http.StatusBadRequest {
		t.Errorf("topk missing id: code %d, want 400", code)
	}
	// Linking an empty subset against an empty corpus.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/link", api.LinkRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("link empty corpus: code %d, want 400", code)
	}
	// Sorted-by-default: the non-strict server accepts unsorted samples.
	lax := newTestServer(t, eng, server.Options{})
	req, err := http.NewRequest(http.MethodPut, lax.URL+"/v1/trajectories/lax",
		strings.NewReader(`{"samples": [[10,0,0],[5,1,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("lax unsorted ingest: code %d, want 200", resp.StatusCode)
	}
	got, ok := eng.Get("lax")
	if !ok || got.Samples[0].T != 5 {
		t.Errorf("lax ingest not sorted: %+v", got.Samples)
	}
	// A bad k is caught before the engine runs.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/topk?id="+ds[0].ID+"&k=-2", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad k: code %d, want 400", code)
	}
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// blockScorer blocks every Score call until release is closed, and counts
// calls — the instrument for the cancellation and backpressure tests.
type blockScorer struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
	calls   atomic.Int64
}

func newBlockScorer() *blockScorer {
	return &blockScorer{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockScorer) Name() string { return "block" }

func (b *blockScorer) Score(_, _ model.Trajectory) (float64, error) {
	b.calls.Add(1)
	b.once.Do(func() { close(b.started) })
	<-b.release
	return 1, nil
}

func walkTraj(id string, x0 float64, n int) model.Trajectory {
	tr := model.Trajectory{ID: id, Samples: make([]model.Sample, n)}
	for i := range tr.Samples {
		tr.Samples[i] = model.Sample{T: float64(10 * i)}
		tr.Samples[i].Loc.X = x0 + float64(i)
	}
	return tr
}

// TestClientDisconnectAbortsQuery checks mid-request cancellation: when
// the client goes away, the request context aborts the engine executor —
// most of the corpus is never scored — and the request is accounted as a
// 499.
func TestClientDisconnectAbortsQuery(t *testing.T) {
	const corpus = 256
	bs := newBlockScorer()
	eng, err := engine.New(bs, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < corpus; i++ {
		if _, err := eng.Add(walkTraj(fmt.Sprintf("w-%03d", i), float64(i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	ts := newTestServer(t, eng, server.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/topk?id=w-000&k=5", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	<-bs.started // scoring is in flight
	cancel()     // client disconnects
	if err := <-done; err == nil {
		t.Fatal("client request did not observe its own cancellation")
	}
	// Give the server's background connection read time to notice the
	// disconnect and cancel the request context, then unblock the workers.
	time.Sleep(250 * time.Millisecond)
	close(bs.release)

	// The executor must stop claiming work: with the context cancelled
	// before any worker came back, only the in-flight calls complete.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if body := fetch(t, ts.URL+"/metrics"); strings.Contains(body, `sts_requests_total{route="topk",code="499"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("499 never surfaced in /metrics; metrics:\n%s", fetch(t, ts.URL+"/metrics"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := bs.calls.Load(); n > corpus/2 {
		t.Fatalf("cancellation did not abort the executor: %d/%d pairs scored", n, corpus)
	}
}

// TestBackpressure checks the 429 path: with one admission slot held by a
// blocked query, further queries are shed immediately with Retry-After,
// while observability routes stay reachable.
func TestBackpressure(t *testing.T) {
	bs := newBlockScorer()
	eng, err := engine.New(bs, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Add(walkTraj(fmt.Sprintf("w-%d", i), float64(i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	ts := newTestServer(t, eng, server.Options{MaxInFlight: 1, RetryAfter: 3 * time.Second})

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/similarity?a=w-0&b=w-1")
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-bs.started // the only slot is now held

	resp, err := http.Get(ts.URL + "/v1/similarity?a=w-2&b=w-3")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr api.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request: code %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if apiErr.Error == "" {
		t.Fatal("429 carried no error body")
	}
	// Observability is exempt from admission control.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, nil); code != http.StatusOK {
		t.Fatalf("stats under overload: code %d", code)
	}
	if body := fetch(t, ts.URL+"/metrics"); !strings.Contains(body, "sts_rejected_total 1") {
		t.Fatalf("metrics under overload missing rejection count:\n%s", body)
	}

	close(bs.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", code)
	}
}

// TestGracefulDrain checks Serve's shutdown path: cancelling the serve
// context stops accepting but drains the in-flight request to completion.
func TestGracefulDrain(t *testing.T) {
	bs := newBlockScorer()
	eng, err := engine.New(bs, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Add(walkTraj(fmt.Sprintf("w-%d", i), float64(i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(eng, server.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Get(url + "/v1/similarity?a=w-0&b=w-1")
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-bs.started
	stop() // SIGTERM equivalent: drain begins with one request in flight
	time.Sleep(50 * time.Millisecond)
	close(bs.release)

	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: code %d, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestConcurrentIngestAndQuery hammers the server from many goroutines —
// ingest, delete, query, stats — and fails on any 5xx. Run under -race.
func TestConcurrentIngestAndQuery(t *testing.T) {
	_, eng, ds := mallWorld(t, 6)
	ts := newTestServer(t, eng, server.Options{MaxInFlight: -1})
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/trajectories:batch",
		api.BatchRequest{Trajectories: api.FromDataset(ds)}, nil); code != http.StatusOK {
		t.Fatalf("seed ingest: code %d", code)
	}

	workers, iters := 6, 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			myID := fmt.Sprintf("stress-%d", g)
			mine := api.FromTrajectory(ds[g%len(ds)])
			mine.ID = myID
			for i := 0; i < iters; i++ {
				var code int
				switch i % 5 {
				case 0:
					code = doJSON(t, http.MethodPut, ts.URL+"/v1/trajectories/"+myID, mine, nil)
				case 1:
					code = doJSON(t, http.MethodGet,
						fmt.Sprintf("%s/v1/similarity?a=%s&b=%s", ts.URL, ds[0].ID, ds[1].ID), nil, nil)
				case 2:
					code = doJSON(t, http.MethodGet,
						fmt.Sprintf("%s/v1/topk?id=%s&k=3", ts.URL, ds[(g+i)%len(ds)].ID), nil, nil)
				case 3:
					code = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, nil)
				case 4:
					code = doJSON(t, http.MethodDelete, ts.URL+"/v1/trajectories/"+myID, nil, nil)
				}
				if code >= 500 {
					t.Errorf("goroutine %d iter %d: code %d", g, i, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The base corpus must have survived the churn.
	var lr api.ListResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/trajectories", nil, &lr); code != http.StatusOK {
		t.Fatalf("final list: code %d", code)
	}
	for _, tj := range ds {
		found := false
		for _, id := range lr.IDs {
			if id == tj.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("base trajectory %s lost during stress", tj.ID)
		}
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
