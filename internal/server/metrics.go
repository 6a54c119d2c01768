package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/stream"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache hits through multi-second cold matrix queries.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// routeMetrics accumulates one route's counters. The mutex spans only
// counter bumps — nanoseconds against the milliseconds a scored request
// costs — so a finer atomic layout would buy nothing measurable.
type routeMetrics struct {
	mu      sync.Mutex
	codes   map[int]uint64 // responses by status code
	buckets []uint64       // latency histogram, one per latencyBuckets bound
	overflw uint64         // observations above the last bound (+Inf bucket)
	sumNs   uint64         // total latency in nanoseconds
	count   uint64         // total observations
}

// metrics is the server-wide registry. Routes register up front so the
// /metrics exposition is stable from the first scrape (a route that has
// served nothing still exports zeroed series).
type metrics struct {
	inflight atomic.Int64  // requests currently being served
	rejected atomic.Uint64 // requests shed by the admission limiter

	mu     sync.Mutex
	routes map[string]*routeMetrics
}

func newMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeMetrics)}
}

func (m *metrics) register(route string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.routes[route]; !ok {
		m.routes[route] = &routeMetrics{
			codes:   make(map[int]uint64),
			buckets: make([]uint64, len(latencyBuckets)),
		}
	}
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, elapsed time.Duration) {
	m.mu.Lock()
	rm := m.routes[route]
	m.mu.Unlock()
	if rm == nil {
		return // unregistered route; nothing to record against
	}
	secs := elapsed.Seconds()
	rm.mu.Lock()
	rm.codes[code]++
	placed := false
	for i, le := range latencyBuckets {
		if secs <= le {
			rm.buckets[i]++
			placed = true
			break
		}
	}
	if !placed {
		rm.overflw++
	}
	rm.sumNs += uint64(elapsed.Nanoseconds())
	rm.count++
	rm.mu.Unlock()
}

// render writes the Prometheus text exposition: request counters and
// latency histograms per route, the in-flight gauge and rejection counter,
// and — read live from the engine — corpus size and per-kind cache
// counters with hit ratios. On a sharded engine, store residency and the
// prune counters additionally export one shard-labeled series per
// partition next to the unlabeled rollup (sum the labeled series, not the
// family, when aggregating). The streaming registry contributes the
// append/standing-query/alert-delivery families (watch-labeled where a
// per-watch breakdown helps), rendered by renderStream below.
func (m *metrics) render(w io.Writer, eng engine.Service, reg *stream.Registry) {
	var shards []engine.ShardStat
	if st, ok := eng.(engine.ShardStater); ok {
		shards = st.ShardStats()
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	m.mu.Unlock()
	sort.Strings(names)

	fmt.Fprint(w, "# HELP sts_requests_total Requests served, by route and status code.\n# TYPE sts_requests_total counter\n")
	for _, name := range names {
		rm := m.route(name)
		rm.mu.Lock()
		codes := make([]int, 0, len(rm.codes))
		for c := range rm.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "sts_requests_total{route=%q,code=%q} %d\n", name, strconv.Itoa(c), rm.codes[c])
		}
		rm.mu.Unlock()
	}

	fmt.Fprint(w, "# HELP sts_request_seconds Request latency, by route.\n# TYPE sts_request_seconds histogram\n")
	for _, name := range names {
		rm := m.route(name)
		rm.mu.Lock()
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += rm.buckets[i]
			fmt.Fprintf(w, "sts_request_seconds_bucket{route=%q,le=%q} %d\n", name, formatFloat(le), cum)
		}
		cum += rm.overflw
		fmt.Fprintf(w, "sts_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "sts_request_seconds_sum{route=%q} %s\n", name, formatFloat(float64(rm.sumNs)/1e9))
		fmt.Fprintf(w, "sts_request_seconds_count{route=%q} %d\n", name, rm.count)
		rm.mu.Unlock()
	}

	fmt.Fprint(w, "# HELP sts_inflight_requests Requests currently being served.\n# TYPE sts_inflight_requests gauge\n")
	fmt.Fprintf(w, "sts_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprint(w, "# HELP sts_rejected_total Requests shed by the admission limiter (429s).\n# TYPE sts_rejected_total counter\n")
	fmt.Fprintf(w, "sts_rejected_total %d\n", m.rejected.Load())

	fmt.Fprint(w, "# HELP sts_corpus_size Trajectories in the engine corpus.\n# TYPE sts_corpus_size gauge\n")
	fmt.Fprintf(w, "sts_corpus_size %d\n", eng.Len())

	ss := eng.StoreStats()
	fmt.Fprint(w, "# HELP sts_store_resident_bytes Arena bytes resident in the columnar corpus store (live records plus dead slack awaiting GC).\n# TYPE sts_store_resident_bytes gauge\n")
	fmt.Fprintf(w, "sts_store_resident_bytes %d\n", ss.ArenaBytes)
	for _, sh := range shards {
		fmt.Fprintf(w, "sts_store_resident_bytes{shard=%q} %d\n", strconv.Itoa(sh.Shard), sh.Store.ArenaBytes)
	}
	fmt.Fprint(w, "# HELP sts_store_live_bytes Live encoded-record bytes in the columnar corpus store.\n# TYPE sts_store_live_bytes gauge\n")
	fmt.Fprintf(w, "sts_store_live_bytes %d\n", ss.LiveBytes)
	fmt.Fprint(w, "# HELP sts_wal_bytes Current write-ahead-log segment size (0 without persistence).\n# TYPE sts_wal_bytes gauge\n")
	fmt.Fprintf(w, "sts_wal_bytes %d\n", ss.WALBytes)
	fmt.Fprint(w, "# HELP sts_snapshot_total Store snapshots taken since open.\n# TYPE sts_snapshot_total counter\n")
	fmt.Fprintf(w, "sts_snapshot_total %d\n", ss.Snapshots)
	fmt.Fprint(w, "# HELP sts_snapshot_errors_total Store snapshot attempts that failed.\n# TYPE sts_snapshot_errors_total counter\n")
	fmt.Fprintf(w, "sts_snapshot_errors_total %d\n", ss.SnapshotErrors)
	fmt.Fprint(w, "# HELP sts_recovery_seconds Duration of the boot-time recovery (snapshot load + WAL replay).\n# TYPE sts_recovery_seconds gauge\n")
	fmt.Fprintf(w, "sts_recovery_seconds %s\n", formatFloat(ss.RecoverySeconds))
	fmt.Fprint(w, "# HELP sts_cache_warm_loaded_total Profiles warm-loaded from the derived-state sidecar at recovery.\n# TYPE sts_cache_warm_loaded_total counter\n")
	fmt.Fprintf(w, "sts_cache_warm_loaded_total %d\n", ss.WarmProfiles)
	fmt.Fprint(w, "# HELP sts_recovery_warm_seconds Duration of the sidecar warm load during recovery.\n# TYPE sts_recovery_warm_seconds gauge\n")
	fmt.Fprintf(w, "sts_recovery_warm_seconds %s\n", formatFloat(ss.WarmSeconds))
	fmt.Fprint(w, "# HELP sts_sidecar_writes_total Derived-state sidecar files written at snapshots.\n# TYPE sts_sidecar_writes_total counter\n")
	fmt.Fprintf(w, "sts_sidecar_writes_total %d\n", ss.SidecarWrites)
	fmt.Fprint(w, "# HELP sts_sidecar_errors_total Derived-state sidecar write attempts that failed.\n# TYPE sts_sidecar_errors_total counter\n")
	fmt.Fprintf(w, "sts_sidecar_errors_total %d\n", ss.SidecarErrors)

	ps := eng.PruneStats()
	fmt.Fprint(w, "# HELP sts_prune_considered_total Candidate pairs entering pruned (filter-and-refine) queries.\n# TYPE sts_prune_considered_total counter\n")
	fmt.Fprintf(w, "sts_prune_considered_total %d\n", ps.Considered)
	for _, sh := range shards {
		fmt.Fprintf(w, "sts_prune_considered_total{shard=%q} %d\n", strconv.Itoa(sh.Shard), sh.Prune.Considered)
	}
	fmt.Fprint(w, "# HELP sts_prune_ub_pruned_total Candidates decided by the admissible upper bound alone.\n# TYPE sts_prune_ub_pruned_total counter\n")
	fmt.Fprintf(w, "sts_prune_ub_pruned_total %d\n", ps.BoundPruned)
	for _, sh := range shards {
		fmt.Fprintf(w, "sts_prune_ub_pruned_total{shard=%q} %d\n", strconv.Itoa(sh.Shard), sh.Prune.BoundPruned)
	}
	fmt.Fprint(w, "# HELP sts_prune_early_exit_total Refinements abandoned once the threshold became unreachable.\n# TYPE sts_prune_early_exit_total counter\n")
	fmt.Fprintf(w, "sts_prune_early_exit_total %d\n", ps.EarlyExited)
	for _, sh := range shards {
		fmt.Fprintf(w, "sts_prune_early_exit_total{shard=%q} %d\n", strconv.Itoa(sh.Shard), sh.Prune.EarlyExited)
	}
	fmt.Fprint(w, "# HELP sts_prune_refined_total Refinements scored to completion.\n# TYPE sts_prune_refined_total counter\n")
	fmt.Fprintf(w, "sts_prune_refined_total %d\n", ps.Refined)
	for _, sh := range shards {
		fmt.Fprintf(w, "sts_prune_refined_total{shard=%q} %d\n", strconv.Itoa(sh.Shard), sh.Prune.Refined)
	}

	kinds := []struct {
		name  string
		stats engine.CacheStats
	}{{"prepared", eng.CacheStats()}, {"profile", eng.ProfileCacheStats()}}
	fmt.Fprint(w, "# HELP sts_cache_hits_total Derived-state cache hits, by cache kind.\n# TYPE sts_cache_hits_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_hits_total{cache=%q} %d\n", k.name, k.stats.Hits)
	}
	fmt.Fprint(w, "# HELP sts_cache_misses_total Derived-state cache misses, by cache kind.\n# TYPE sts_cache_misses_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_misses_total{cache=%q} %d\n", k.name, k.stats.Misses)
	}
	fmt.Fprint(w, "# HELP sts_cache_evictions_total Derived-state cache evictions, by cache kind.\n# TYPE sts_cache_evictions_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_evictions_total{cache=%q} %d\n", k.name, k.stats.Evictions)
	}
	fmt.Fprint(w, "# HELP sts_cache_size Cached derived-state entries, by cache kind.\n# TYPE sts_cache_size gauge\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_size{cache=%q} %d\n", k.name, k.stats.Size)
	}
	fmt.Fprint(w, "# HELP sts_cache_hit_ratio Cache hit ratio since process start, by cache kind.\n# TYPE sts_cache_hit_ratio gauge\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_hit_ratio{cache=%q} %s\n", k.name, formatFloat(k.stats.HitRate()))
	}
	fmt.Fprint(w, "# HELP sts_cache_resident_bytes Estimated heap bytes held by cached derived state, by cache kind.\n# TYPE sts_cache_resident_bytes gauge\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "sts_cache_resident_bytes{cache=%q} %d\n", k.name, k.stats.Bytes)
	}

	if reg != nil {
		renderStream(w, reg.Stats())
	}
}

// renderStream writes the streaming subsystem's families: append ingest
// counters, standing-query evaluation counters with the per-append
// evaluation latency histogram, and webhook delivery outcomes. Alert and
// delivery counters additionally export one watch-labeled series per
// standing query next to the unlabeled rollup.
func renderStream(w io.Writer, st stream.Stats) {
	fmt.Fprint(w, "# HELP sts_append_total Sample-level trajectory appends evaluated by the streaming subsystem.\n# TYPE sts_append_total counter\n")
	fmt.Fprintf(w, "sts_append_total %d\n", st.Appends)
	fmt.Fprint(w, "# HELP sts_append_samples_total Samples ingested through appends.\n# TYPE sts_append_samples_total counter\n")
	fmt.Fprintf(w, "sts_append_samples_total %d\n", st.AppendedSamples)

	fmt.Fprint(w, "# HELP sts_watches Standing co-location queries registered.\n# TYPE sts_watches gauge\n")
	fmt.Fprintf(w, "sts_watches %d\n", len(st.Watches))
	fmt.Fprint(w, "# HELP sts_standing_evals_total Standing-query evaluations run against appended trajectories.\n# TYPE sts_standing_evals_total counter\n")
	fmt.Fprintf(w, "sts_standing_evals_total %d\n", st.Evals)
	fmt.Fprint(w, "# HELP sts_standing_pairs_total Candidate pairs scored by standing evaluations.\n# TYPE sts_standing_pairs_total counter\n")
	fmt.Fprintf(w, "sts_standing_pairs_total %d\n", st.Pairs)
	fmt.Fprint(w, "# HELP sts_standing_subthreshold_total Standing-query pairs disposed of below theta (upper-bound pruned or refined under it).\n# TYPE sts_standing_subthreshold_total counter\n")
	fmt.Fprintf(w, "sts_standing_subthreshold_total %d\n", st.Subthreshold)

	fmt.Fprint(w, "# HELP sts_alerts_total Standing-query alerts fired, by watch.\n# TYPE sts_alerts_total counter\n")
	fmt.Fprintf(w, "sts_alerts_total %d\n", st.Alerts)
	for _, ws := range st.Watches {
		fmt.Fprintf(w, "sts_alerts_total{watch=%q} %d\n", ws.Name, ws.Alerts)
	}
	fmt.Fprint(w, "# HELP sts_alerts_suppressed_total Threshold crossings silenced by the per-pair alert debounce, by watch.\n# TYPE sts_alerts_suppressed_total counter\n")
	fmt.Fprintf(w, "sts_alerts_suppressed_total %d\n", st.Suppressed)
	for _, ws := range st.Watches {
		fmt.Fprintf(w, "sts_alerts_suppressed_total{watch=%q} %d\n", ws.Name, ws.Suppressed)
	}
	fmt.Fprint(w, "# HELP sts_alert_delivered_total Alerts delivered to their webhook, by watch.\n# TYPE sts_alert_delivered_total counter\n")
	fmt.Fprintf(w, "sts_alert_delivered_total %d\n", st.Delivered)
	for _, ws := range st.Watches {
		fmt.Fprintf(w, "sts_alert_delivered_total{watch=%q} %d\n", ws.Name, ws.Delivered)
	}
	fmt.Fprint(w, "# HELP sts_alert_retries_total Webhook delivery retries.\n# TYPE sts_alert_retries_total counter\n")
	fmt.Fprintf(w, "sts_alert_retries_total %d\n", st.Retries)
	fmt.Fprint(w, "# HELP sts_alert_dead_letter_total Alerts abandoned after exhausting delivery attempts, by watch.\n# TYPE sts_alert_dead_letter_total counter\n")
	fmt.Fprintf(w, "sts_alert_dead_letter_total %d\n", st.DeadLettered)
	for _, ws := range st.Watches {
		fmt.Fprintf(w, "sts_alert_dead_letter_total{watch=%q} %d\n", ws.Name, ws.DeadLettered)
	}
	fmt.Fprint(w, "# HELP sts_alert_dropped_total Alerts shed because a delivery queue was full.\n# TYPE sts_alert_dropped_total counter\n")
	fmt.Fprintf(w, "sts_alert_dropped_total %d\n", st.Dropped)

	fmt.Fprint(w, "# HELP sts_standing_eval_seconds Standing-query evaluation latency per append.\n# TYPE sts_standing_eval_seconds histogram\n")
	h := st.EvalSeconds
	cum := uint64(0)
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "sts_standing_eval_seconds_bucket{le=%q} %d\n", formatFloat(le), cum)
	}
	cum += h.Overflow
	fmt.Fprintf(w, "sts_standing_eval_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "sts_standing_eval_seconds_sum %s\n", formatFloat(h.Sum))
	fmt.Fprintf(w, "sts_standing_eval_seconds_count %d\n", h.Count)
}

func (m *metrics) route(name string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routes[name]
}

// formatFloat renders a float the shortest way that round-trips, matching
// Prometheus exposition conventions.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
