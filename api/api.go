// Package api defines the JSON wire contract of the stsserved HTTP API:
// the request and response bodies exchanged by the server (internal/server)
// and the typed Go client (client). Trajectories travel in the same compact
// form as the dataset JSON interchange format — one object per trajectory
// with samples as [t, x, y] triples — so payloads written by
// sts.WriteDatasetJSON can be replayed against the ingestion endpoints
// directly.
//
// The package is dependency-light on purpose: it carries data, not
// behavior, and both sides of the wire (and any third-party tooling) can
// import it without pulling in the engine.
package api

import (
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// Trajectory is the wire form of one trajectory: samples are [t, x, y]
// triples (seconds, meters, meters).
type Trajectory struct {
	ID      string       `json:"id"`
	Samples [][3]float64 `json:"samples"`
}

// FromTrajectory converts a library trajectory (sts.Trajectory) to its
// wire form.
func FromTrajectory(tr model.Trajectory) Trajectory {
	out := Trajectory{ID: tr.ID, Samples: make([][3]float64, len(tr.Samples))}
	for i, s := range tr.Samples {
		out.Samples[i] = [3]float64{s.T, s.Loc.X, s.Loc.Y}
	}
	return out
}

// FromDataset converts a dataset to its wire form.
func FromDataset(ds model.Dataset) []Trajectory {
	out := make([]Trajectory, len(ds))
	for i, tr := range ds {
		out[i] = FromTrajectory(tr)
	}
	return out
}

// Model converts the wire trajectory back to a library trajectory. No
// validation or time-ordering happens here; ingestion boundaries apply
// dataset.Normalize.
func (t Trajectory) Model() model.Trajectory {
	tr := model.Trajectory{ID: t.ID, Samples: make([]model.Sample, len(t.Samples))}
	for i, s := range t.Samples {
		tr.Samples[i] = model.Sample{T: s[0], Loc: geo.Point{X: s[1], Y: s[2]}}
	}
	return tr
}

// PutResponse acknowledges PUT /v1/trajectories/{id}.
type PutResponse struct {
	ID string `json:"id"`
	// CorpusSize is the corpus size after the write.
	CorpusSize int `json:"corpus_size"`
}

// BatchRequest is the body of POST /v1/trajectories:batch.
type BatchRequest struct {
	Trajectories []Trajectory `json:"trajectories"`
}

// BatchResponse acknowledges a batch ingestion.
type BatchResponse struct {
	Ingested   int `json:"ingested"`
	CorpusSize int `json:"corpus_size"`
}

// AppendRequest is the body of POST /v1/trajectories/{id}:append —
// strictly time-ordered samples extending the resident trajectory past its
// current last timestamp.
type AppendRequest struct {
	Samples [][3]float64 `json:"samples"`
}

// AppendResponse acknowledges an append.
type AppendResponse struct {
	ID string `json:"id"`
	// N is the trajectory's sample count after the append.
	N          int `json:"n"`
	CorpusSize int `json:"corpus_size"`
	// Alerts is the number of standing-query alerts this append fired.
	Alerts int `json:"alerts"`
}

// Watch is the wire form of one standing co-location query: alert whenever
// an appended trajectory scores >= Theta against any member. On
// PUT /v1/watch/{name} the path name is authoritative; a body Name, when
// present, must agree.
type Watch struct {
	Name    string   `json:"name,omitempty"`
	Members []string `json:"members"`
	Theta   float64  `json:"theta"`
	// Webhook, when non-empty, is the URL alerts are POSTed to as JSON.
	Webhook string `json:"webhook,omitempty"`
	// DebounceSeconds overrides the server's per-pair alert debounce for
	// this watch, in stream time: once a (trajectory, member) pair fires,
	// repeat alerts are suppressed until the trajectory's clock advances
	// past the window. 0 inherits the server default (-alert-debounce);
	// negative disables debouncing for this watch.
	DebounceSeconds float64 `json:"debounce_seconds,omitempty"`
}

// WatchStats is one standing query's configuration and counters, as listed
// by GET /v1/watch.
type WatchStats struct {
	Name    string  `json:"name"`
	Members int     `json:"members"`
	Theta   float64 `json:"theta"`
	Webhook string  `json:"webhook,omitempty"`
	// Evals counts standing evaluations; Pairs the candidate pairs they
	// scored; Subthreshold the pairs disposed of below theta.
	Evals        uint64 `json:"evals"`
	Pairs        uint64 `json:"pairs"`
	Subthreshold uint64 `json:"subthreshold"`
	// Alerts counts threshold crossings that fired; Suppressed counts
	// crossings silenced by the per-pair debounce window.
	// Delivered/Retries/DeadLettered count webhook delivery outcomes;
	// Dropped counts alerts shed by the bounded delivery queue; QueueLen
	// is the current backlog.
	Alerts       uint64 `json:"alerts"`
	Suppressed   uint64 `json:"suppressed"`
	Delivered    uint64 `json:"delivered"`
	Retries      uint64 `json:"retries"`
	DeadLettered uint64 `json:"dead_lettered"`
	Dropped      uint64 `json:"dropped"`
	QueueLen     int    `json:"queue_len"`
}

// WatchListResponse is the body of GET /v1/watch.
type WatchListResponse struct {
	Watches []WatchStats `json:"watches"`
	Count   int          `json:"count"`
}

// ListResponse is the body of GET /v1/trajectories: the corpus IDs in
// sorted order.
type ListResponse struct {
	IDs   []string `json:"ids"`
	Count int      `json:"count"`
}

// SimilarityResponse is the body of GET /v1/similarity. Score is null when
// the measure is undefined on the pair (a NaN score, sanitized to a
// non-match) — JSON has no -Inf.
type SimilarityResponse struct {
	A     string   `json:"a"`
	B     string   `json:"b"`
	Score *float64 `json:"score"`
}

// Match is one result of a top-k query.
type Match struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// TopKResponse is the body of GET /v1/topk.
type TopKResponse struct {
	Query   string  `json:"query"`
	K       int     `json:"k"`
	Matches []Match `json:"matches"`
}

// LinkRequest is the body of POST /v1/link: greedily link the corpus
// subset A one-to-one to the corpus subset B (an empty list selects the
// whole corpus). MinScore rejects weak links; MaxSpeed, when positive,
// enables the FTL velocity-feasibility pre-filter with the MinGap Δt
// exemption (default 1 s).
type LinkRequest struct {
	A        []string `json:"a"`
	B        []string `json:"b"`
	MinScore float64  `json:"min_score,omitempty"`
	MaxSpeed float64  `json:"max_speed,omitempty"`
	MinGap   float64  `json:"min_gap,omitempty"`
}

// LinkedPair is one link of a LinkResponse.
type LinkedPair struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Score float64 `json:"score"`
}

// LinkResponse is the body of POST /v1/link, links sorted by descending
// score.
type LinkResponse struct {
	Links []LinkedPair `json:"links"`
}

// PruneStats mirrors the engine's cumulative filter-and-refine counters on
// the wire: how many candidate pairs pruned queries have considered, how
// many were decided by the admissible upper bound alone, how many
// refinements were abandoned early, and how many ran to completion.
type PruneStats struct {
	Considered  uint64 `json:"considered"`
	BoundPruned uint64 `json:"bound_pruned"`
	EarlyExited uint64 `json:"early_exited"`
	Refined     uint64 `json:"refined"`
}

// CacheStats mirrors the engine's per-cache counters on the wire.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Size      int     `json:"size"`
	Cap       int     `json:"cap"`
	HitRate   float64 `json:"hit_rate"`
	// Bytes is the estimated resident heap footprint of the cached values.
	Bytes int64 `json:"bytes"`
}

// StoreStats mirrors the columnar corpus store's footprint and persistence
// counters on the wire.
type StoreStats struct {
	// LiveBytes is the sum of live encoded-record sizes; ArenaBytes the
	// resident arena footprint including dead-record slack awaiting GC.
	LiveBytes  int64 `json:"live_bytes"`
	ArenaBytes int64 `json:"arena_bytes"`
	// CoordStep is the fixed-point coordinate quantization step applied to
	// newly encoded records (0 = lossless).
	CoordStep float64 `json:"coord_step"`
	// Persistent reports whether the store runs on a data directory (WAL +
	// snapshots). The remaining fields are zero when it does not.
	Persistent bool `json:"persistent"`
	// WALBytes is the current WAL segment's size, WALSeq its sequence
	// number.
	WALBytes int64  `json:"wal_bytes"`
	WALSeq   uint64 `json:"wal_seq"`
	// Snapshots and SnapshotErrors count snapshot attempts since open.
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// RecoverySeconds is the duration of the boot-time recovery (snapshot
	// load + WAL replay).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// WarmProfiles is the number of derived-state sidecar entries
	// revalidated at recovery (profiles the engine started warm with);
	// WarmSeconds the sidecar load duration. SidecarWrites and
	// SidecarErrors count sidecar capture attempts since open.
	WarmProfiles  int     `json:"warm_profiles"`
	WarmSeconds   float64 `json:"warm_seconds"`
	SidecarWrites uint64  `json:"sidecar_writes"`
	SidecarErrors uint64  `json:"sidecar_errors"`
}

// ShardStats is one partition's statistics when the serving engine is
// sharded (stsserved -shards > 1): the same per-kind counters as the
// top-level StatsResponse, scoped to one shard. The top-level fields stay
// the rolled-up totals, so dashboards built against a single-engine server
// keep working unchanged.
type ShardStats struct {
	// Shard is the partition number (0-based), CorpusSize its share of the
	// corpus.
	Shard      int `json:"shard"`
	CorpusSize int `json:"corpus_size"`

	Prepared CacheStats `json:"prepared_cache"`
	Profile  CacheStats `json:"profile_cache"`
	Prune    PruneStats `json:"prune"`
	Store    StoreStats `json:"store"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Version is the server build version (module version + VCS revision).
	Version string `json:"version"`
	// CorpusSize is the number of trajectories in the corpus.
	CorpusSize int `json:"corpus_size"`
	// Profiled reports whether scoring runs through bucketed S-T profiles.
	Profiled bool `json:"profiled"`
	// Workers is the engine's parallelism bound.
	Workers int `json:"workers"`
	// Prepared and Profile are the per-kind derived-state cache counters.
	Prepared CacheStats `json:"prepared_cache"`
	// Profile counts the profile cache, which backs profiled scoring and
	// the bound pass of pruned queries on exact engines alike. All zero
	// means the engine keeps no profile cache (an exact engine with
	// pruning disabled).
	Profile CacheStats `json:"profile_cache"`
	// Prune are the filter-and-refine counters of the pruned query paths
	// (top-k and thresholded link scoring). All-zero on engines with
	// pruning disabled.
	Prune PruneStats `json:"prune"`
	// Store are the columnar corpus store's footprint and persistence
	// counters; CorpusSize is sourced from the same store. On a sharded
	// engine these are aggregates over the per-shard stores.
	Store StoreStats `json:"store"`
	// Shards, present only when the engine is sharded, breaks the
	// rolled-up counters above down per partition, in shard order.
	Shards []ShardStats `json:"shards,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
