package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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

	var requests, latency []sample
	for _, name := range names {
		rm := m.route(name)
		rm.mu.Lock()
		codes := make([]int, 0, len(rm.codes))
		for c := range rm.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			requests = append(requests, sample{labels: labels("route", name, "code", strconv.Itoa(c)), value: rm.codes[c]})
		}
		latency = append(latency, histogram("route", name, stream.HistogramSnapshot{
			Bounds: latencyBuckets, Counts: rm.buckets, Overflow: rm.overflw,
			Sum: float64(rm.sumNs) / 1e9, Count: rm.count,
		})...)
		rm.mu.Unlock()
	}

	ss, ps := eng.StoreStats(), eng.PruneStats()
	shard := func(sh engine.ShardStat) string { return strconv.Itoa(sh.Shard) }
	perShard := func(total any, v func(engine.ShardStat) any) []sample {
		return rollup(total, "shard", shards, shard, v)
	}
	type kind struct {
		name  string
		stats engine.CacheStats
	}
	kinds := []kind{{"prepared", eng.CacheStats()}, {"profile", eng.ProfileCacheStats()}}
	byKind := func(v func(engine.CacheStats) any) []sample {
		return rollup(nil, "cache", kinds, func(k kind) string { return k.name }, func(k kind) any { return v(k.stats) })
	}

	writeFamilies(w, []family{
		{"sts_requests_total", "counter", "Requests served, by route and status code.", requests},
		{"sts_request_seconds", "histogram", "Request latency, by route.", latency},
		{"sts_inflight_requests", "gauge", "Requests currently being served.", single(m.inflight.Load())},
		{"sts_rejected_total", "counter", "Requests shed by the admission limiter (429s).", single(m.rejected.Load())},
		{"sts_corpus_size", "gauge", "Trajectories in the engine corpus.", single(eng.Len())},
		{"sts_store_resident_bytes", "gauge", "Arena bytes resident in the columnar corpus store (live records plus dead slack awaiting GC).",
			perShard(ss.ArenaBytes, func(sh engine.ShardStat) any { return sh.Store.ArenaBytes })},
		{"sts_store_live_bytes", "gauge", "Live encoded-record bytes in the columnar corpus store.", single(ss.LiveBytes)},
		{"sts_wal_bytes", "gauge", "Current write-ahead-log segment size (0 without persistence).", single(ss.WALBytes)},
		{"sts_snapshot_total", "counter", "Store snapshots taken since open.", single(ss.Snapshots)},
		{"sts_snapshot_errors_total", "counter", "Store snapshot attempts that failed.", single(ss.SnapshotErrors)},
		{"sts_recovery_seconds", "gauge", "Duration of the boot-time recovery (snapshot load + WAL replay).", single(ss.RecoverySeconds)},
		{"sts_cache_warm_loaded_total", "counter", "Profiles warm-loaded from the derived-state sidecar at recovery.", single(ss.WarmProfiles)},
		{"sts_recovery_warm_seconds", "gauge", "Duration of the sidecar warm load during recovery.", single(ss.WarmSeconds)},
		{"sts_sidecar_writes_total", "counter", "Derived-state sidecar files written at snapshots.", single(ss.SidecarWrites)},
		{"sts_sidecar_errors_total", "counter", "Derived-state sidecar write attempts that failed.", single(ss.SidecarErrors)},
		{"sts_prune_considered_total", "counter", "Candidate pairs entering pruned (filter-and-refine) queries.",
			perShard(ps.Considered, func(sh engine.ShardStat) any { return sh.Prune.Considered })},
		{"sts_prune_ub_pruned_total", "counter", "Candidates decided by the admissible upper bound alone.",
			perShard(ps.BoundPruned, func(sh engine.ShardStat) any { return sh.Prune.BoundPruned })},
		{"sts_prune_early_exit_total", "counter", "Refinements abandoned once the threshold became unreachable.",
			perShard(ps.EarlyExited, func(sh engine.ShardStat) any { return sh.Prune.EarlyExited })},
		{"sts_prune_refined_total", "counter", "Refinements scored to completion.",
			perShard(ps.Refined, func(sh engine.ShardStat) any { return sh.Prune.Refined })},
		{"sts_cache_hits_total", "counter", "Derived-state cache hits, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.Hits })},
		{"sts_cache_misses_total", "counter", "Derived-state cache misses, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.Misses })},
		{"sts_cache_evictions_total", "counter", "Derived-state cache evictions, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.Evictions })},
		{"sts_cache_size", "gauge", "Cached derived-state entries, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.Size })},
		{"sts_cache_hit_ratio", "gauge", "Cache hit ratio since process start, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.HitRate() })},
		{"sts_cache_resident_bytes", "gauge", "Estimated heap bytes held by cached derived state, by cache kind.",
			byKind(func(c engine.CacheStats) any { return c.Bytes })},
	})

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
	perWatch := func(total any, v func(stream.WatchStats) any) []sample {
		return rollup(total, "watch", st.Watches, func(ws stream.WatchStats) string { return ws.Name }, v)
	}
	writeFamilies(w, []family{
		{"sts_append_total", "counter", "Sample-level trajectory appends evaluated by the streaming subsystem.", single(st.Appends)},
		{"sts_append_samples_total", "counter", "Samples ingested through appends.", single(st.AppendedSamples)},
		{"sts_watches", "gauge", "Standing co-location queries registered.", single(len(st.Watches))},
		{"sts_standing_evals_total", "counter", "Standing-query evaluations run against appended trajectories.", single(st.Evals)},
		{"sts_standing_pairs_total", "counter", "Candidate pairs scored by standing evaluations.", single(st.Pairs)},
		{"sts_standing_subthreshold_total", "counter", "Standing-query pairs disposed of below theta (upper-bound pruned or refined under it).", single(st.Subthreshold)},
		{"sts_alerts_total", "counter", "Standing-query alerts fired, by watch.",
			perWatch(st.Alerts, func(ws stream.WatchStats) any { return ws.Alerts })},
		{"sts_alerts_suppressed_total", "counter", "Threshold crossings silenced by the per-pair alert debounce, by watch.",
			perWatch(st.Suppressed, func(ws stream.WatchStats) any { return ws.Suppressed })},
		{"sts_alert_delivered_total", "counter", "Alerts delivered to their webhook, by watch.",
			perWatch(st.Delivered, func(ws stream.WatchStats) any { return ws.Delivered })},
		{"sts_alert_retries_total", "counter", "Webhook delivery retries.", single(st.Retries)},
		{"sts_alert_dead_letter_total", "counter", "Alerts abandoned after exhausting delivery attempts, by watch.",
			perWatch(st.DeadLettered, func(ws stream.WatchStats) any { return ws.DeadLettered })},
		{"sts_alert_dropped_total", "counter", "Alerts shed because a delivery queue was full.", single(st.Dropped)},
		{"sts_standing_eval_seconds", "histogram", "Standing-query evaluation latency per append.", histogram("", "", st.EvalSeconds)},
	})
}

// family is one metric family of the exposition: its name, TYPE and HELP
// headers, and its samples.
type family struct {
	name, typ, help string
	samples         []sample
}

// sample is one exposition line: the family name plus suffix (a
// histogram's _bucket/_sum/_count), a rendered label set, and a value
// printed with %v — integers in decimal, floats the shortest way that
// round-trips, as Prometheus expects.
type sample struct {
	suffix string
	labels string
	value  any
}

// writeFamilies renders families in order, each as its HELP and TYPE
// headers followed by its samples.
func writeFamilies(w io.Writer, fams []family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s%s%s %v\n", f.name, s.suffix, s.labels, s.value)
		}
	}
}

// single is a family's one unlabeled sample.
func single(v any) []sample { return []sample{{value: v}} }

// rollup is the rollup-plus-labeled shape: the unlabeled total (omitted
// when nil), then one sample per part labeled key=name(part).
func rollup[P any](total any, key string, parts []P, name func(P) string, value func(P) any) []sample {
	var out []sample
	if total != nil {
		out = append(out, sample{value: total})
	}
	for _, p := range parts {
		out = append(out, sample{labels: labels(key, name(p)), value: value(p)})
	}
	return out
}

// histogram is the histogram shape for one series, labeled key=name when
// key is non-empty: cumulative _bucket samples per bound and +Inf, then
// _sum and _count.
func histogram(key, name string, h stream.HistogramSnapshot) []sample {
	var kv []string
	if key != "" {
		kv = []string{key, name}
	}
	out := make([]sample, 0, len(h.Bounds)+3)
	cum := uint64(0)
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		out = append(out, sample{suffix: "_bucket", labels: labels(append(kv, "le", formatFloat(le))...), value: cum})
	}
	cum += h.Overflow
	return append(out,
		sample{suffix: "_bucket", labels: labels(append(kv, "le", "+Inf")...), value: cum},
		sample{suffix: "_sum", labels: labels(kv...), value: h.Sum},
		sample{suffix: "_count", labels: labels(kv...), value: h.Count})
}

// labels renders key/value pairs as a {k="v",...} label set ("" for none).
func labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
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
