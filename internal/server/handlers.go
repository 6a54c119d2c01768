package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, err := w.Write([]byte("ok\n"))
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.eng, s.watches)
	return nil
}

// handleSnapshot forces an immediate store snapshot — corpus plus the
// derived-state sidecar — instead of waiting for the WAL-growth trigger;
// the ops hook warm-restart drills use to persist cache warmth before a
// crash. It answers with the post-snapshot store stats. Only a corpus
// that is not durable is the caller's conflict (409); a snapshot that
// fails maps like any other write (mapEngineErr).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	if !s.eng.StoreStats().Persistent {
		return httpErrorf(http.StatusConflict, "snapshot requires a durable corpus")
	}
	if err := s.eng.Snapshot(); err != nil {
		return mapEngineErr(err)
	}
	return writeJSON(w, http.StatusOK, wireStoreStats(s.eng.StoreStats()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	ps := s.eng.PruneStats()
	resp := api.StatsResponse{
		Version:    s.opts.Version,
		CorpusSize: s.eng.Len(),
		Profiled:   s.eng.Profiled(),
		Workers:    s.eng.Workers(),
		Prepared:   wireCacheStats(s.eng.CacheStats()),
		Profile:    wireCacheStats(s.eng.ProfileCacheStats()),
		Prune: api.PruneStats{
			Considered:  ps.Considered,
			BoundPruned: ps.BoundPruned,
			EarlyExited: ps.EarlyExited,
			Refined:     ps.Refined,
		},
	}
	resp.Store = wireStoreStats(s.eng.StoreStats())
	if st, ok := s.eng.(engine.ShardStater); ok {
		shards := st.ShardStats()
		resp.Shards = make([]api.ShardStats, len(shards))
		for i, sh := range shards {
			resp.Shards[i] = api.ShardStats{
				Shard:      sh.Shard,
				CorpusSize: sh.Len,
				Prepared:   wireCacheStats(sh.Cache),
				Profile:    wireCacheStats(sh.ProfileCache),
				Prune: api.PruneStats{
					Considered:  sh.Prune.Considered,
					BoundPruned: sh.Prune.BoundPruned,
					EarlyExited: sh.Prune.EarlyExited,
					Refined:     sh.Prune.Refined,
				},
				Store: wireStoreStats(sh.Store),
			}
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	ids := s.eng.IDs()
	return writeJSON(w, http.StatusOK, api.ListResponse{IDs: ids, Count: len(ids)})
}

// handlePut upserts one trajectory. The path ID is authoritative; a body
// ID, when present, must agree.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var wire api.Trajectory
	if err := s.readJSON(w, r, &wire); err != nil {
		return err
	}
	if wire.ID != "" && wire.ID != id {
		return httpErrorf(http.StatusBadRequest, "body id %q does not match path id %q", wire.ID, id)
	}
	tr := wire.Model()
	tr.ID = id
	if err := s.normalizeIngest(&tr); err != nil {
		return err
	}
	if _, err := s.eng.Replace(tr); err != nil {
		return mapEngineErr(fmt.Errorf("ingest %q: %w", id, err))
	}
	return writeJSON(w, http.StatusOK, api.PutResponse{ID: id, CorpusSize: s.eng.Len()})
}

func (s *Server) handleGetTrajectory(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	tr, ok := s.eng.Get(id)
	if !ok {
		return httpErrorf(http.StatusNotFound, "trajectory %q not in corpus", id)
	}
	return writeJSON(w, http.StatusOK, api.FromTrajectory(tr))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.eng.Remove(r.PathValue("id")); err != nil {
		return mapEngineErr(err)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleBatch ingests many trajectories in one request. Validation runs
// over the whole batch before the first corpus write, so a malformed
// payload is rejected atomically instead of half-applied.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	var req api.BatchRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	if len(req.Trajectories) == 0 {
		return httpErrorf(http.StatusBadRequest, "batch has no trajectories")
	}
	ds := make(model.Dataset, len(req.Trajectories))
	seen := make(map[string]bool, len(req.Trajectories))
	for i, wire := range req.Trajectories {
		if wire.ID == "" {
			return httpErrorf(http.StatusBadRequest, "batch trajectory %d has no id", i)
		}
		if seen[wire.ID] {
			return httpErrorf(http.StatusBadRequest, "batch repeats id %q", wire.ID)
		}
		seen[wire.ID] = true
		tr := wire.Model()
		if err := s.normalizeIngest(&tr); err != nil {
			return err
		}
		ds[i] = tr
	}
	for _, tr := range ds {
		if err := r.Context().Err(); err != nil {
			return err
		}
		if _, err := s.eng.Replace(tr); err != nil {
			return mapEngineErr(fmt.Errorf("ingest %q: %w", tr.ID, err))
		}
	}
	return writeJSON(w, http.StatusOK, api.BatchResponse{Ingested: len(ds), CorpusSize: s.eng.Len()})
}

// handleSimilarity scores one corpus pair through the engine (and thus
// through its prepared/profile caches and worker pool), honoring the
// request context.
func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) error {
	aID := r.URL.Query().Get("a")
	bID := r.URL.Query().Get("b")
	if aID == "" || bID == "" {
		return httpErrorf(http.StatusBadRequest, "similarity needs both ?a= and ?b= trajectory ids")
	}
	a, ok := s.eng.Get(aID)
	if !ok {
		return httpErrorf(http.StatusNotFound, "trajectory %q not in corpus", aID)
	}
	b, ok := s.eng.Get(bID)
	if !ok {
		return httpErrorf(http.StatusNotFound, "trajectory %q not in corpus", bID)
	}
	scores, err := s.eng.ScoreBatch(r.Context(), model.Dataset{a}, model.Dataset{b}, nil)
	if err != nil {
		return err
	}
	resp := api.SimilarityResponse{A: aID, B: bID}
	if v := scores[0][0]; !math.IsInf(v, 0) && !math.IsNaN(v) {
		resp.Score = &v
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleTopK ranks the corpus against one of its trajectories. The query
// itself is excluded from the results (it would trivially rank first);
// pass ?self=true to keep it. An optional ?min_score= floor drops weaker
// matches and feeds the engine's filter-and-refine pruning from the first
// wave on.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		return httpErrorf(http.StatusBadRequest, "topk needs an ?id= query trajectory")
	}
	k := s.opts.DefaultK
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			return httpErrorf(http.StatusBadRequest, "bad k %q: want a positive integer", raw)
		}
		k = v
	}
	includeSelf := q.Get("self") == "true"
	minScore := math.Inf(-1)
	if raw := q.Get("min_score"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(v) {
			return httpErrorf(http.StatusBadRequest, "bad min_score %q: want a number", raw)
		}
		minScore = v
	}
	query, ok := s.eng.Get(id)
	if !ok {
		return httpErrorf(http.StatusNotFound, "trajectory %q not in corpus", id)
	}
	want := k
	if !includeSelf && k < math.MaxInt {
		want = k + 1 // room to drop the query's own entry
	}
	matches, err := s.eng.TopKOpts(r.Context(), query, engine.TopKOptions{K: want, MinScore: minScore})
	if err != nil {
		return mapEngineErr(err)
	}
	resp := api.TopKResponse{Query: id, K: k, Matches: make([]api.Match, 0, min(k, len(matches)))}
	for _, m := range matches {
		if len(resp.Matches) == k {
			break
		}
		if !includeSelf && m.ID == id {
			continue
		}
		if math.IsInf(m.Score, 0) || math.IsNaN(m.Score) {
			continue // sanitized non-matches have no JSON representation
		}
		resp.Matches = append(resp.Matches, api.Match{ID: m.ID, Score: m.Score})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleLink greedily links two corpus subsets one-to-one through the
// engine's batch scorer, so repeated link queries reuse cached
// per-trajectory preparation.
func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) error {
	var req api.LinkRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	d1, err := s.eng.Subset(req.A)
	if err != nil {
		return mapEngineErr(err)
	}
	d2, err := s.eng.Subset(req.B)
	if err != nil {
		return mapEngineErr(err)
	}
	links, err := linking.GreedyLinkBatch(r.Context(), s.eng, d1, d2, linking.Options{
		MinScore: req.MinScore,
		MaxSpeed: req.MaxSpeed,
		MinGap:   req.MinGap,
		Workers:  s.eng.Workers(),
	})
	if errors.Is(err, linking.ErrEmptyInput) {
		return httpErrorf(http.StatusBadRequest, "link needs non-empty subsets on both sides (corpus holds %d trajectories)", s.eng.Len())
	}
	if err != nil {
		return err
	}
	resp := api.LinkResponse{Links: make([]api.LinkedPair, len(links))}
	for i, l := range links {
		resp.Links[i] = api.LinkedPair{A: d1[l.I].ID, B: d2[l.J].ID, Score: l.Score}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// normalizeIngest applies the shared ingestion policy — dataset.Normalize,
// so the server's Strict option means exactly what the readers'
// RejectUnsorted means — and maps violations to 400s.
func (s *Server) normalizeIngest(tr *model.Trajectory) error {
	if err := dataset.Normalize(tr, dataset.ReadOptions{RejectUnsorted: s.opts.Strict}); err != nil {
		return httpErrorf(http.StatusBadRequest, "%v", err)
	}
	return nil
}

// mapEngineErr translates engine and store sentinel errors to HTTP
// statuses: invalid input is the client's fault (400), a missing
// trajectory is 404, and a closed store is 503. Anything else — a
// storage or scoring failure — stays the middleware's 500.
func mapEngineErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, engine.ErrNotFound):
		return &httpError{status: http.StatusNotFound, msg: err.Error()}
	case errors.Is(err, engine.ErrNoQuery), errors.Is(err, model.ErrEmpty),
		errors.Is(err, model.ErrUnsorted), errors.Is(err, model.ErrNonFinite),
		errors.Is(err, model.ErrDuplicate):
		return &httpError{status: http.StatusBadRequest, msg: err.Error()}
	case errors.Is(err, store.ErrClosed):
		return &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	default:
		return err
	}
}

func wireCacheStats(cs engine.CacheStats) api.CacheStats {
	return api.CacheStats{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Evictions: cs.Evictions,
		Size:      cs.Size,
		Cap:       cs.Cap,
		HitRate:   cs.HitRate(),
		Bytes:     cs.Bytes,
	}
}

func wireStoreStats(st store.Stats) api.StoreStats {
	return api.StoreStats{
		LiveBytes:       st.LiveBytes,
		ArenaBytes:      st.ArenaBytes,
		CoordStep:       st.CoordStep,
		Persistent:      st.Persistent,
		WALBytes:        st.WALBytes,
		WALSeq:          st.WALSeq,
		Snapshots:       st.Snapshots,
		SnapshotErrors:  st.SnapshotErrors,
		RecoverySeconds: st.RecoverySeconds,
		WarmProfiles:    st.WarmProfiles,
		WarmSeconds:     st.WarmSeconds,
		SidecarWrites:   st.SidecarWrites,
		SidecarErrors:   st.SidecarErrors,
	}
}
