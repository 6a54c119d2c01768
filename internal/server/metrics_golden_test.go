package server

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/store"
	"github.com/stslib/sts/internal/stream"
)

// goldenService is a fixed-value engine.Service for the exposition golden
// test: the embedded interface is nil, so any method the renderer should
// not call panics.
type goldenService struct {
	engine.Service
}

func (goldenService) Len() int { return 42 }

func (goldenService) StoreStats() store.Stats {
	return store.Stats{
		Records: 42, LiveBytes: 9000, ArenaBytes: 16384,
		WALBytes: 512, Snapshots: 3, SnapshotErrors: 1,
		RecoverySeconds: 0.25, WarmProfiles: 7, WarmSeconds: 0.0125,
		SidecarWrites: 2, SidecarErrors: 1,
	}
}

func (goldenService) PruneStats() engine.PruneStats {
	return engine.PruneStats{Considered: 100, BoundPruned: 60, EarlyExited: 15, Refined: 25}
}

func (goldenService) CacheStats() engine.CacheStats {
	return engine.CacheStats{Hits: 30, Misses: 10, Evictions: 2, Size: 8, Cap: 64, Bytes: 4096}
}

func (goldenService) ProfileCacheStats() engine.CacheStats {
	return engine.CacheStats{Hits: 5, Misses: 3, Evictions: 1, Size: 4, Cap: 64, Bytes: 2048}
}

func (goldenService) ShardStats() []engine.ShardStat {
	return []engine.ShardStat{
		{Shard: 0, Len: 20, Store: store.Stats{ArenaBytes: 8192},
			Prune: engine.PruneStats{Considered: 40, BoundPruned: 20, EarlyExited: 5, Refined: 15}},
		{Shard: 1, Len: 22, Store: store.Stats{ArenaBytes: 8192},
			Prune: engine.PruneStats{Considered: 60, BoundPruned: 40, EarlyExited: 10, Refined: 10}},
	}
}

// TestMetricsExpositionGolden pins the whole /metrics text byte for byte:
// e2ebench and the CI smokes parse these family names, so a refactor of
// the renderer must not move a single byte.
func TestMetricsExpositionGolden(t *testing.T) {
	m := newMetrics()
	for _, r := range []string{"topk", "similarity", "append"} {
		m.register(r)
	}
	m.observe("topk", 200, 500*time.Microsecond)
	m.observe("topk", 200, 30*time.Millisecond)
	m.observe("topk", 404, 2*time.Millisecond)
	m.observe("topk", 200, time.Minute)
	m.observe("append", 201, 4*time.Millisecond)
	m.observe("append", 429, 100*time.Microsecond)
	m.inflight.Store(2)
	m.rejected.Store(5)

	counts := make([]uint64, 13)
	counts[1], counts[3], counts[12] = 4, 2, 1
	st := stream.Stats{
		Appends: 9, AppendedSamples: 27,
		Evals: 8, Pairs: 300, Subthreshold: 290,
		Alerts: 10, Suppressed: 3, Delivered: 6, Retries: 4, DeadLettered: 1, Dropped: 2,
		EvalSeconds: stream.HistogramSnapshot{
			Bounds: []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5},
			Counts: counts, Overflow: 1, Sum: 7.625, Count: 8,
		},
		Watches: []stream.WatchStats{
			{Name: "gate", Members: 128, Theta: 0.2, Alerts: 7, Suppressed: 2, Delivered: 4, DeadLettered: 1},
			{Name: "lobby", Members: 64, Theta: 0.1, Alerts: 3, Suppressed: 1, Delivered: 2},
		},
	}

	var sb strings.Builder
	m.render(&sb, goldenService{}, nil)
	renderStream(&sb, st)

	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition differs at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, golden %d", len(gl), len(wl))
	}
}
