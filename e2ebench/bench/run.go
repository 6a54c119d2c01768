package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/stslib/sts/client"
	"github.com/stslib/sts/e2ebench/trace"
)

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const (
	// MinOps is the fewest operations a timed phase may hold: p99 then has
	// at least ten samples beyond it.
	MinOps = 1000
	// Clients is the number of closed-loop clients: nproc on the 2-vCPU
	// box the benchmark was sized on.
	Clients = 2
	// Setups is how many times an untraced run sets the server up;
	// setup_s is their median.
	Setups = 5
)

// Config is one benchmark invocation.
type Config struct {
	Workload  Workload
	Seed      int64
	Seconds   time.Duration
	Trace     bool
	ServerBin string
	TracedBin string
	WorkDir   string // parent of the run's scratch directory
	Commit    string
	Log       io.Writer // the human-readable report
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// run holds one invocation's state.
type run struct {
	Config
	in     *Inputs
	dir    string
	corpus string
	checks Checks
	res    *Result
}

// Run executes one workload and returns its result. Output-check failures
// leave Correct false; err is reserved for the benchmark failing to run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	r := &run{Config: cfg, res: &Result{Metrics: make(map[string]Metric)}}
	in, err := Generate(cfg.Workload, cfg.Seed, Clients)
	if err != nil {
		return nil, err
	}
	r.in = in
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(cfg.WorkDir, cfg.Workload.Name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	csv, err := in.CSV()
	if err != nil {
		return nil, err
	}
	r.corpus = filepath.Join(r.dir, "corpus.csv")
	if err := os.WriteFile(r.corpus, csv, 0o644); err != nil {
		return nil, err
	}
	r.logf("e2ebench workload=%s seed=%d seconds=%g trace=%v clients=%d (closed loop)", cfg.Workload.Name, cfg.Seed, cfg.Seconds.Seconds(), cfg.Trace, Clients)
	r.logf("box: nproc=%d GOMAXPROCS=%d go=%s commit=%s os=%s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.Commit, runtime.GOOS, runtime.GOARCH)
	r.logf("inputs: %d corpus trajectories, %d samples; %d requests in each of the %s", len(in.Corpus), corpusSamples(in.Corpus), in.Ops(), unitName(cfg.Workload))
	if cfg.Trace {
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range r.checks.Errs {
		r.logf("CHECK FAILED: %s", e)
	}
	r.logf("checks: %d passed, %d failed", r.checks.Passed, len(r.checks.Errs))
	r.res.Correct = len(r.checks.Errs) == 0 && r.res.Failed == 0
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		r.logf("  %-32s %14.6g %s", n, m.Value, m.Unit)
	}
	return r.res, nil
}

func (r *run) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

func (r *run) set(name, unit string, v float64) {
	r.res.Metrics[name] = Metric{Value: v, Unit: unit}
}

// unitName names the workload's repeating unit (plural).
func unitName(w Workload) string {
	if w.Append() {
		return "rounds"
	}
	return "passes"
}

// live is a server after set-up, ready for its timed phase.
type live struct {
	srv   *Server
	cl    *client.Client
	hc    *http.Client
	warm  *Phase
	setup time.Duration
}

func (l *live) stop() {
	l.hc.CloseIdleConnections()
	l.srv.Stop()
}

// setUp starts a server and brings it to the first timed operation: boot
// with the -dataset preload, watch registration, and one warm-up pass or
// round. The set-up time runs from exec to the end of the warm-up.
func (r *run) setUp(ctx context.Context, bin string, traced bool, extra ...string) (*live, error) {
	start := time.Now()
	srv, err := StartServer(ctx, bin, r.Workload, r.dir, r.corpus, extra...)
	if err != nil {
		return nil, err
	}
	cl, hc, err := NewClient(srv.Base, Clients, traced)
	if err != nil {
		srv.Stop()
		return nil, err
	}
	l := &live{srv: srv, cl: cl, hc: hc}
	fail := func(err error) (*live, error) {
		l.stop()
		return nil, fmt.Errorf("set-up: %w\n%s", err, srv.LogTail())
	}
	for _, w := range r.in.Watches {
		if _, err := cl.WatchPut(ctx, w); err != nil {
			return fail(err)
		}
	}
	o := LoadOpts{Clients: Clients, Units: 1, Tag: "w"}
	if r.Workload.Append() {
		l.warm, err = RunStreams(ctx, cl, r.in, o)
	} else {
		l.warm, err = RunQueries(ctx, cl, r.in, r.Workload.K, o)
	}
	if err != nil {
		return fail(err)
	}
	if n := l.warm.Failed(); n > 0 {
		return fail(fmt.Errorf("%d warm-up requests failed", n))
	}
	l.setup = time.Since(start)
	return l, nil
}

// timed runs a measured phase of at least the given length.
func (r *run) timed(ctx context.Context, l *live, seconds time.Duration, traced bool) (*Phase, error) {
	o := LoadOpts{Clients: Clients, Seconds: seconds, MinOps: MinOps, Traced: traced, Tag: "r"}
	if r.Workload.Append() {
		return RunStreams(ctx, l.cl, r.in, o)
	}
	return RunQueries(ctx, l.cl, r.in, r.Workload.K, o)
}

// check runs the output checks on a finished phase (after timing).
func (r *run) check(ctx context.Context, l *live, ref *Reference, p *Phase, alertsDelta float64) error {
	if r.Workload.Append() {
		return CheckStreams(ctx, l.cl, ref, r.in, r.Seed, l.warm, p, alertsDelta, &r.checks)
	}
	return CheckQueries(ctx, l.cl, ref, r.in, r.Workload.K, r.Seed, l.warm, p, &r.checks)
}

// config records the resolved server configuration.
func (r *run) config(ctx context.Context, l *live) {
	st, err := l.cl.Stats(ctx)
	if err != nil {
		r.logf("config: /v1/stats failed: %v", err)
		return
	}
	shards := len(st.Shards)
	if shards == 0 {
		shards = 1
	}
	r.logf("config: stsserved %s; shards=%d workers=%d prepared_cache_cap=%d (per shard %d); data dir on %s; fsync batched every 50ms (stsserved default)",
		strings.Join(l.srv.Args, " "), shards, st.Workers, st.Prepared.Cap, st.Prepared.Cap/shards, FSType(l.srv.DataDir))
}

func (r *run) untraced(ctx context.Context) error {
	var (
		setups []float64
		l      *live
		err    error
	)
	for i := 0; i < Setups; i++ {
		if l, err = r.setUp(ctx, r.ServerBin, false); err != nil {
			return err
		}
		setups = append(setups, l.setup.Seconds())
		if i < Setups-1 {
			l.stop()
			os.RemoveAll(l.srv.DataDir)
		}
	}
	defer l.stop()
	r.config(ctx, l)
	before, err := Scrape(ctx, l.hc, l.srv.Base)
	if err != nil {
		return err
	}
	bytesBefore, err := DirBytes(l.srv.DataDir)
	if err != nil {
		return err
	}
	p, err := r.timed(ctx, l, r.Seconds, false)
	if err != nil {
		return err
	}
	after, err := Scrape(ctx, l.hc, l.srv.Base)
	if err != nil {
		return err
	}
	bytesAfter, err := DirBytes(l.srv.DataDir)
	if err != nil {
		return err
	}
	ps, err := ReadProc(l.srv.Pid())
	if err != nil {
		return err
	}
	r.record(p, setups)

	ref, err := NewReference(r.corpus)
	if err != nil {
		return err
	}
	if err := r.check(ctx, l, ref, p, before.Delta(after, "sts_alerts_total")); err != nil {
		return err
	}
	r.set("setup_s", "s", Median(setups))
	r.set("rss_mb", "MB", float64(ps.HWMkB)*1024/1e6)
	if r.Workload.Append() {
		m, err := StreamMatchP1(ctx, l.cl, r.in)
		if err != nil {
			return err
		}
		r.set("match_p1", "ratio", m)
		r.set("disk_bytes_per_sample", "B/sample", float64(bytesAfter-bytesBefore)/float64(phaseSamples(r.in, p)))
	} else {
		r.set("match_p1", "ratio", MatchP1(r.in, l.warm))
		r.set("disk_bytes_per_sample", "B/sample", float64(bytesBefore)/float64(corpusSamples(r.in.Corpus)))
	}
	return nil
}

// phaseSamples counts the samples an append phase sent.
func phaseSamples(in *Inputs, p *Phase) int {
	n := 0
	for _, op := range p.Ops {
		st := in.Plans[op.Client][op.Index]
		b := in.Streams[st.Stream].Batches[st.Batch]
		n += b[1] - b[0]
	}
	return n
}

// record sets the client-side end-to-end metrics of a timed phase.
func (r *run) record(p *Phase, setups []float64) {
	lat := p.Latencies()
	n := len(lat)
	r.res.Attempted += n
	r.res.Failed += p.Failed()
	// The median one-second rate: a transient stall of the shared host
	// moves it less than the mean over the phase.
	r.set("throughput_ops_s", "1/s", Median(p.Rates()))
	r.set("p50_ms", "ms", finite(Percentile(lat, 50), p))
	r.set("p99_ms", "ms", finite(Percentile(lat, 99), p))
	r.logf("per-second completions: %v", p.Rates())
	r.logf("timed: %d ops in %d whole %s over %.2fs, %d failed; p50 and p99 from %d samples (%d beyond p99); set-ups %v s",
		n, p.Rounds, unitName(r.Workload), p.Wall.Seconds(), p.Failed(), n, Beyond(n, 99), setups)
}

// finite reports a percentile that landed on a failed operation as the
// whole phase's wall time: a failure misses every latency limit.
func finite(v float64, p *Phase) float64 {
	if math.IsInf(v, 1) {
		return ms(p.Wall)
	}
	return v
}

// traced is the per-layer run: an untraced baseline phase and a traced
// phase, each half the run length (and at least MinOps operations), on
// separate servers set up the same way.
func (r *run) traced(ctx context.Context) error {
	half := r.Seconds / 2
	// Untraced baseline: the same set-up and load, for the tracing
	// overhead and the process CPU per operation.
	l, err := r.setUp(ctx, r.ServerBin, false)
	if err != nil {
		return err
	}
	r.config(ctx, l)
	cpu0, err := ReadProc(l.srv.Pid())
	if err != nil {
		l.stop()
		return err
	}
	base, err := r.timed(ctx, l, half, false)
	if err != nil {
		l.stop()
		return err
	}
	cpu1, err := ReadProc(l.srv.Pid())
	l.stop()
	if err != nil {
		return err
	}
	r.res.Attempted += len(base.Ops)
	r.res.Failed += base.Failed()

	traceFile := filepath.Join(r.dir, "trace.json")
	l, err = r.setUp(ctx, r.TracedBin, true, "-trace-out", traceFile)
	if err != nil {
		return err
	}
	defer l.stop()
	mark := func(name string) error {
		resp, err := l.hc.Get(l.srv.Base + trace.MarkPath + "?name=" + url.QueryEscape(name))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("mark %s: %s", name, resp.Status)
		}
		return nil
	}
	before, err := Scrape(ctx, l.hc, l.srv.Base)
	if err != nil {
		return err
	}
	if err := mark("timed"); err != nil {
		return err
	}
	p, err := r.timed(ctx, l, half, true)
	if err != nil {
		return err
	}
	if err := mark("after"); err != nil {
		return err
	}
	after, err := Scrape(ctx, l.hc, l.srv.Base)
	if err != nil {
		return err
	}
	r.res.Attempted += len(p.Ops)
	r.res.Failed += p.Failed()
	r.logf("traced: %d ops over %.2fs (%d failed); untraced baseline %d ops over %.2fs",
		len(p.Ops), p.Wall.Seconds(), p.Failed(), len(base.Ops), base.Wall.Seconds())

	ref, err := NewReference(r.corpus)
	if err != nil {
		return err
	}
	if err := r.check(ctx, l, ref, p, before.Delta(after, "sts_alerts_total")); err != nil {
		return err
	}
	l.hc.CloseIdleConnections()
	if err := l.srv.Stop(); err != nil {
		return fmt.Errorf("traced server: %v\n%s", err, l.srv.LogTail())
	}
	tf, err := trace.ReadFile(traceFile)
	if err != nil {
		return err
	}
	costs, err := MeasureCore(ref, r.in, r.Workload, r.Seed)
	if err != nil {
		return err
	}
	lm := LayerInputs{
		In: r.in, W: r.Workload, Base: base, Traced: p, File: tf,
		Before: before, After: after, CPU: cpu1.CPU - cpu0.CPU, Core: costs,
	}
	return lm.Fill(r.set)
}

// Print writes the result as the benchmark's last output line.
func (res *Result) Print(w io.Writer) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
