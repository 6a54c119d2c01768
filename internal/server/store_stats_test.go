package server_test

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/server"
	"github.com/stslib/sts/internal/store"
)

// TestStatsCorpusSizeUnderConcurrentIngest pins the single-source-of-truth
// property of the store-backed corpus: /v1/stats reports the store's count,
// so while writers race, every observed corpus_size is a value the corpus
// actually passed through (monotonically non-decreasing under pure ingest),
// and once the writers are done it equals both Engine.Len and the number of
// trajectories ingested.
func TestStatsCorpusSizeUnderConcurrentIngest(t *testing.T) {
	_, eng, ds := mallWorld(t, 12)
	ts := newTestServer(t, eng, server.Options{MaxInFlight: -1})

	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds); i += writers {
				url := fmt.Sprintf("%s/v1/trajectories/%s", ts.URL, ds[i].ID)
				if code := doJSON(t, http.MethodPut, url, api.FromTrajectory(ds[i]), nil); code != http.StatusOK {
					t.Errorf("put %s: code %d", ds[i].ID, code)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := 0
	for {
		var sr api.StatsResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &sr); code != http.StatusOK {
			t.Fatalf("stats: code %d", code)
		}
		if sr.CorpusSize < last || sr.CorpusSize > len(ds) {
			t.Fatalf("stats corpus_size went %d -> %d (corpus holds at most %d)", last, sr.CorpusSize, len(ds))
		}
		last = sr.CorpusSize
		select {
		case <-done:
			var final api.StatsResponse
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, &final); code != http.StatusOK {
				t.Fatalf("final stats: code %d", code)
			}
			if final.CorpusSize != eng.Len() || final.CorpusSize != len(ds) {
				t.Fatalf("final stats corpus_size=%d, engine Len=%d, ingested=%d — must all agree",
					final.CorpusSize, eng.Len(), len(ds))
			}
			if final.Store.LiveBytes <= 0 {
				t.Fatalf("final stats store.live_bytes=%d, want > 0 after ingest", final.Store.LiveBytes)
			}
			return
		default:
		}
	}
}

// TestClosedStoreAnswers503 pins the storage-failure mapping of the write
// routes: once the durable store behind the engine is closed, every write
// fails with store.ErrClosed, which is the server's fault, not the
// client's. PUT, batch and append answer 503; a tail that fails validation
// still answers 400.
func TestClosedStoreAnswers503(t *testing.T) {
	m, _, ds := mallWorld(t, 4)
	st, err := store.Open(t.TempDir(), store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(eval.NewSTSScorer("STS", m), engine.Options{Corpus: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, eng, server.Options{})
	id := ds[0].ID
	if code := doJSON(t, http.MethodPut, ts.URL+"/v1/trajectories/"+id, api.FromTrajectory(ds[0]), nil); code != http.StatusOK {
		t.Fatalf("put before close: code %d", code)
	}
	last := ds[0].Samples[len(ds[0].Samples)-1]
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, method, url string
		body              any
		want              int
	}{
		{"put", http.MethodPut, ts.URL + "/v1/trajectories/" + ds[1].ID, api.FromTrajectory(ds[1]), http.StatusServiceUnavailable},
		{"batch", http.MethodPost, ts.URL + "/v1/trajectories:batch",
			api.BatchRequest{Trajectories: api.FromDataset(ds[1:])}, http.StatusServiceUnavailable},
		{"append", http.MethodPost, ts.URL + "/v1/trajectories/" + id + ":append",
			api.AppendRequest{Samples: [][3]float64{{last.T + 5, last.Loc.X, last.Loc.Y}}}, http.StatusServiceUnavailable},
		{"stale append", http.MethodPost, ts.URL + "/v1/trajectories/" + id + ":append",
			api.AppendRequest{Samples: [][3]float64{{last.T, last.Loc.X, last.Loc.Y}}}, http.StatusBadRequest},
	} {
		if code := doJSON(t, c.method, c.url, c.body, nil); code != c.want {
			t.Errorf("%s on a closed store: code %d, want %d", c.name, code, c.want)
		}
	}
}
