package bench

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/stslib/sts/e2ebench/trace"
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/model"
)

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// corpusSamples counts the samples of a dataset.
func corpusSamples(ds model.Dataset) int {
	n := 0
	for _, tr := range ds {
		n += tr.Len()
	}
	return n
}

// CoreCosts are internal/core unit costs measured by direct calls on the
// workload's own trajectories.
type CoreCosts struct {
	PrepareUs, ProfileUs, UpperBoundNs, RefineUs, AppendProfileUs float64
}

// MeasureCore times core's prepare, profile, upper-bound, refinement and
// incremental-append calls on a seeded sample of the corpus, with the
// reference's measure (the served scorer construction) and the bound
// profile options an exact, pruning engine uses.
func MeasureCore(ref *Reference, in *Inputs, w Workload, seed int64) (CoreCosts, error) {
	var c CoreCosts
	ms, ok := ref.scorer.(engine.MeasureScorer)
	if !ok {
		return c, errors.New("reference scorer is not measure-backed")
	}
	m := ms.Measure()
	opts := core.ProfileOptions{Bounds: true}
	idx := sampleIdx(seed+2, len(in.Corpus), 24)
	preps := make([]*core.Prepared, len(idx))
	profs := make([]*core.Profile, len(idx))
	var tPrep, tProf time.Duration
	for i, ci := range idx {
		t0 := time.Now()
		p, err := m.Prepare(in.Corpus[ci])
		t1 := time.Now()
		if err != nil {
			return c, err
		}
		f, err := m.Profile(p, opts)
		tPrep, tProf = tPrep+t1.Sub(t0), tProf+time.Since(t1)
		if err != nil {
			return c, err
		}
		preps[i], profs[i] = p, f
	}
	c.PrepareUs = float64(tPrep.Microseconds()) / float64(len(idx))
	c.ProfileUs = float64(tProf.Microseconds()) / float64(len(idx))

	var pairs [][2]int
	t0 := time.Now()
	for i := range profs {
		for j := range profs {
			if i == j {
				continue
			}
			ub, err := core.UpperBound(profs[i], profs[j])
			if err != nil {
				return c, err
			}
			if ub > 0 {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	n := len(profs) * (len(profs) - 1)
	c.UpperBoundNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	if len(pairs) > 64 {
		rand.New(rand.NewSource(seed+3)).Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		pairs = pairs[:64]
	}
	t0 = time.Now()
	for _, pr := range pairs {
		if _, _, err := m.RefineThreshold(preps[pr[0]], preps[pr[1]], profs[pr[0]], profs[pr[1]], math.Inf(-1)); err != nil {
			return c, err
		}
	}
	c.RefineUs = div(float64(time.Since(t0).Microseconds()), float64(len(pairs)))

	batch := w.Batch
	if batch == 0 {
		batch = 5
	}
	var tApp time.Duration
	for _, ci := range idx {
		tr := in.Corpus[ci]
		cut := tr.Len() - batch
		p0, err := m.Prepare(model.Trajectory{ID: tr.ID, Samples: tr.Samples[:cut]})
		if err != nil {
			return c, err
		}
		f0, err := m.Profile(p0, opts)
		if err != nil {
			return c, err
		}
		t0 := time.Now()
		p1, err := m.AppendPrepared(p0, tr.Samples[cut:])
		if err != nil {
			return c, err
		}
		if _, err := m.AppendProfile(f0, p1, opts); err != nil {
			return c, err
		}
		tApp += time.Since(t0)
	}
	c.AppendProfileUs = float64(tApp.Microseconds()) / float64(len(idx))
	return c, nil
}

// LayerInputs is everything the per-layer metrics derive from.
type LayerInputs struct {
	In            *Inputs
	W             Workload
	Base, Traced  *Phase
	File          *trace.File
	Before, After Metrics
	CPU           time.Duration // server CPU over the untraced phase
	Core          CoreCosts
}

// Fill computes the per-layer metrics of the traced run.
func (li LayerInputs) Fill(set func(name, unit string, v float64)) error {
	p := li.Traced
	ops := float64(len(p.Ops))
	byReq := make(map[string]trace.Request)
	for _, rq := range li.File.Requests {
		if rq.Phase == "timed" && rq.Req != "" {
			byReq[rq.Req] = rq
		}
	}
	var rtt, transport, handler, reqB, respB float64
	self := map[string]float64{}
	joined := 0.0
	for _, op := range p.Ops {
		rq, ok := byReq[op.ReqID]
		if !ok {
			continue
		}
		joined++
		rtt += ms(op.Lat)
		transport += ms(op.Transport)
		handler += float64(rq.DurNs) / 1e6
		reqB += float64(rq.ReqBytes)
		respB += float64(rq.RespBytes)
		for l, ns := range rq.SelfNs {
			self[l] += float64(ns) / 1e6
		}
	}
	if joined != ops {
		return errors.New("traced run: some timed requests have no server span")
	}
	mean := func(x float64) float64 { return div(x, joined) }
	clientSelf := mean(rtt - transport)
	set("client.rtt_ms", "ms", mean(rtt))
	set("client.overhead_ms", "ms", mean(rtt-handler))
	set("client.self_ms", "ms", clientSelf)
	set("server.handler_ms", "ms", mean(handler))
	set("server.self_ms", "ms", mean(self[trace.LayerServer]))
	set("server.req_bytes", "B", mean(reqB))
	set("server.resp_bytes", "B", mean(respB))
	set("server.rejected_ratio", "ratio", div(li.Before.Delta(li.After, "sts_rejected_total"), ops))
	set("engine.self_ms", "ms", mean(self[trace.LayerEngine]))
	set("store.self_ms", "ms", mean(self[trace.LayerStore]))
	layers := clientSelf + mean(self[trace.LayerServer]+self[trace.LayerEngine]+self[trace.LayerStore])
	set("trace.unattributed_ms", "ms", mean(rtt)-layers)
	set("trace.overhead_pct", "%", 100*(mean(rtt)/Mean(li.Base.Latencies())-1))
	set("process.cpu_ms_per_op", "ms", div(ms(li.CPU), float64(len(li.Base.Ops))))

	names := func(phase string, match func(string) bool) (count, total float64) {
		for _, ns := range li.File.Phases[phase] {
			if match(ns.Name) {
				count += float64(ns.Count)
				total += float64(ns.TotalNs)
			}
		}
		return count, total
	}
	allPhases := func(match func(string) bool) (count, total float64) {
		for ph := range li.File.Phases {
			c, t := names(ph, match)
			count, total = count+c, total+t
		}
		return count, total
	}
	is := func(ns ...string) func(string) bool {
		return func(n string) bool {
			for _, x := range ns {
				if n == x {
					return true
				}
			}
			return false
		}
	}
	_, topk := names("timed", is("engine.TopK"))
	_, appendNs := names("timed", is("engine.Append"))
	_, streamNs := names("timed", func(n string) bool { return strings.HasSuffix(n, "@stream") })
	set("engine.topk_ms", "ms", div(topk/1e6, ops))
	set("engine.append_ms", "ms", div(appendNs/1e6, ops))
	set("stream.engine_ms", "ms", div(streamNs/1e6, ops))
	c, t := allPhases(is("store.Append"))
	set("store.append_us", "us", div(t/1e3, c))
	c, t = allPhases(is("store.Add", "store.Replace"))
	set("store.put_us", "us", div(t/1e3, c))

	d := func(k string) float64 { return li.Before.Delta(li.After, k) }
	considered, pruned := d("sts_prune_considered_total"), d("sts_prune_ub_pruned_total")
	early, refined := d("sts_prune_early_exit_total"), d("sts_prune_refined_total")
	set("engine.considered", "count", div(considered, ops))
	set("engine.bound_pruned", "count", div(pruned, ops))
	set("engine.early_exit", "count", div(early, ops))
	set("engine.refined", "count", div(refined, ops))
	set("engine.prune_rate", "ratio", div(pruned+early, considered))

	var m0, m1 *trace.EngineState
	for _, mk := range li.File.Marks {
		switch mk.Name {
		case "timed":
			m0 = mk.State
		case "after":
			m1 = mk.State
		}
	}
	if m0 == nil || m1 == nil {
		return errors.New("traced run: phase marks missing from the trace file")
	}
	hitRate := func(a, b engine.CacheStats) float64 {
		h, m := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
		return div(h, h+m)
	}
	set("engine.prepared_hit_rate", "ratio", hitRate(m0.Prepared, m1.Prepared))
	set("engine.profile_hit_rate", "ratio", hitRate(m0.Profile, m1.Profile))
	set("engine.profile_evictions_per_op", "count", div(float64(m1.Profile.Evictions-m0.Profile.Evictions), ops))
	set("engine.cache_mb", "MB", float64(m1.Prepared.Bytes+m1.Profile.Bytes)/1e6)

	appends := d("sts_append_total")
	set("core.prepare_us", "us", li.Core.PrepareUs)
	set("core.profile_us", "us", li.Core.ProfileUs)
	set("core.upper_bound_ns", "ns", li.Core.UpperBoundNs)
	set("core.refine_us", "us", li.Core.RefineUs)
	set("core.append_profile_us", "us", li.Core.AppendProfileUs)
	est := float64(m1.Prepared.Misses-m0.Prepared.Misses)*li.Core.PrepareUs +
		float64(m1.Profile.Misses-m0.Profile.Misses)*li.Core.ProfileUs +
		considered*li.Core.UpperBoundNs/1e3 +
		(refined+early)*li.Core.RefineUs +
		appends*li.Core.AppendProfileUs
	set("core.est_ms", "ms", div(est/1e3, ops))

	corpus := float64(corpusSamples(li.In.Corpus))
	if li.W.Append() {
		streamed := float64(phaseSamples(li.In, p))
		resident := corpus
		for _, s := range li.In.Streams {
			resident += float64(len(s.Samples))
		}
		set("store.wal_bytes_per_sample", "B/sample", div(d("sts_wal_bytes"), streamed))
		set("store.live_bytes_per_sample", "B/sample", div(li.After["sts_store_live_bytes"], resident))
	} else {
		set("store.wal_bytes_per_sample", "B/sample", div(li.After["sts_wal_bytes"], corpus))
		set("store.live_bytes_per_sample", "B/sample", div(li.After["sts_store_live_bytes"], corpus))
	}
	pairs := d("sts_standing_pairs_total")
	set("stream.eval_ms", "ms", div(1e3*d("sts_standing_eval_seconds_sum"), appends))
	set("stream.pairs_per_append", "count", div(pairs, appends))
	set("stream.subthreshold_ratio", "ratio", div(d("sts_standing_subthreshold_total"), pairs))
	set("stream.alerts", "count", div(d("sts_alerts_total"), float64(p.Rounds)))
	return nil
}
