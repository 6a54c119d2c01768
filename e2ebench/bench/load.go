package bench

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/client"
	"github.com/stslib/sts/e2ebench/trace"
)

// NewClient returns the typed client the load runs through: no retries
// (a retry would hide 429s and add backoff to latency), and a keep-alive
// pool of exactly one connection per load client. With traced set, every
// request carries the ID its context holds and the transport's share of
// the round trip is recorded.
func NewClient(base string, clients int, traced bool) (*client.Client, *http.Client, error) {
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if traced {
		rt = timedTransport{tr}
	}
	hc := &http.Client{Transport: rt}
	cl, err := client.NewWithOptions(base, client.Options{HTTPClient: hc, NoRetry: true})
	return cl, hc, err
}

// opTrace is the per-request record the traced transport fills in.
type opTrace struct {
	id        string
	transport time.Duration
}

type opTraceKey struct{}

// timedTransport stamps the request ID on each request and times the
// transport's part of the round trip (send through response headers).
type timedTransport struct{ inner http.RoundTripper }

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, _ := req.Context().Value(opTraceKey{}).(*opTrace)
	if ot == nil {
		return t.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(trace.RequestIDHeader, ot.id)
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	ot.transport = time.Since(start)
	return resp, err
}

// Op is one timed request.
type Op struct {
	Client, Index  int
	Lat, Transport time.Duration
	Done           time.Time
	ReqID          string
	Err            error
	// Query workloads.
	Matches []api.Match
	// Append workloads.
	N, Alerts int
}

// Phase is the outcome of one closed-loop phase.
type Phase struct {
	Ops    []Op
	Start  time.Time
	Wall   time.Duration
	Rounds int // whole passes (queries) or rounds (appends) completed
}

// Rates returns the successful completions in each consecutive one-second
// window of the phase (a trailing partial window is dropped).
func (p *Phase) Rates() []float64 {
	n := int(p.Wall / time.Second)
	out := make([]float64, n)
	for _, op := range p.Ops {
		if w := int(op.Done.Sub(p.Start) / time.Second); w < n && op.Err == nil {
			out[w]++
		}
	}
	return out
}

// Failed counts the phase's failed operations.
func (p *Phase) Failed() int {
	n := 0
	for _, op := range p.Ops {
		if op.Err != nil {
			n++
		}
	}
	return n
}

// Latencies returns the phase's latencies in milliseconds, failures as
// +Inf.
func (p *Phase) Latencies() []float64 { return latencies(p.Ops) }

func latencies(ops []Op) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.Lat)
		if op.Err != nil {
			out[i] = inf
		}
	}
	return out
}

// LoadOpts shapes a closed-loop phase: clients each wait for their reply
// before sending again; the phase runs whole passes or rounds until both
// Seconds have elapsed and MinOps have completed, or exactly Units of
// them when Units > 0 (warm-up).
type LoadOpts struct {
	Clients int
	Seconds time.Duration
	MinOps  int
	Units   int
	Traced  bool
	Tag     string // request-ID prefix
}

func (o LoadOpts) call(ctx context.Context, c, seq int, op *Op, f func(context.Context) error) {
	if o.Traced {
		ot := &opTrace{id: fmt.Sprintf("%s-c%d-%d", o.Tag, c, seq)}
		ctx = context.WithValue(ctx, opTraceKey{}, ot)
		defer func() { op.ReqID, op.Transport = ot.id, ot.transport }()
	}
	start := time.Now()
	op.Err = f(ctx)
	op.Done = time.Now()
	op.Lat = op.Done.Sub(start)
}

// passGate hands out query slots from one shared cursor; once the phase
// may end it rounds the stop up to a whole pass.
type passGate struct {
	mu                    sync.Mutex
	passLen, issued, stop int
	minOps                int
	deadline              time.Time
}

func (g *passGate) next() (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stop == 0 && !time.Now().Before(g.deadline) && g.issued >= g.minOps {
		g.stop = (g.issued + g.passLen - 1) / g.passLen * g.passLen
	}
	if g.stop != 0 && g.issued >= g.stop {
		return 0, false
	}
	i := g.issued
	g.issued++
	return i, true
}

// RunQueries drives GET /v1/topk over in.Queries.
func RunQueries(ctx context.Context, cl *client.Client, in *Inputs, k int, o LoadOpts) (*Phase, error) {
	g := &passGate{passLen: len(in.Queries), minOps: o.MinOps, deadline: time.Now().Add(o.Seconds)}
	if o.Units > 0 {
		g.stop = o.Units * g.passLen
	}
	per := make([][]Op, o.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := g.next()
				if !ok || ctx.Err() != nil {
					return
				}
				op := Op{Client: c, Index: i % g.passLen}
				o.call(ctx, c, i, &op, func(ctx context.Context) error {
					resp, err := cl.TopK(ctx, in.Queries[op.Index], k)
					op.Matches = resp.Matches
					return err
				})
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	p := &Phase{Start: start, Wall: time.Since(start), Rounds: g.issued / g.passLen}
	for _, ops := range per {
		p.Ops = append(p.Ops, ops...)
	}
	return p, ctx.Err()
}

// roundGate lets each client start rounds of its own plan; once the phase
// may end, every client completes as many rounds as the furthest one has
// started, so per-round outputs are whole.
type roundGate struct {
	mu       sync.Mutex
	started  []int
	stop     int
	done     int
	minOps   int
	deadline time.Time
}

func (g *roundGate) next(c, completedOps int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done += completedOps
	if g.stop == 0 && !time.Now().Before(g.deadline) && g.done >= g.minOps {
		for _, s := range g.started {
			if s > g.stop {
				g.stop = s
			}
		}
	}
	if g.stop != 0 && g.started[c] >= g.stop {
		return false
	}
	g.started[c]++
	return true
}

// RunStreams replays in.Plans: each client PUTs and appends its own
// streams, round after round.
func RunStreams(ctx context.Context, cl *client.Client, in *Inputs, o LoadOpts) (*Phase, error) {
	g := &roundGate{started: make([]int, o.Clients), minOps: o.MinOps, deadline: time.Now().Add(o.Seconds)}
	if o.Units > 0 {
		g.stop = o.Units
	}
	per := make([][]Op, o.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			plan, seq, last := in.Plans[c], 0, 0
			for {
				if !g.next(c, last) || ctx.Err() != nil {
					return
				}
				for i, st := range plan {
					s := in.Streams[st.Stream]
					b := s.Batches[st.Batch]
					op := Op{Client: c, Index: i}
					o.call(ctx, c, seq, &op, func(ctx context.Context) error {
						if st.Batch == 0 {
							_, err := cl.Put(ctx, api.Trajectory{ID: s.ID, Samples: s.Samples[b[0]:b[1]]})
							op.N = b[1]
							return err
						}
						resp, err := cl.Append(ctx, s.ID, s.Samples[b[0]:b[1]])
						op.N, op.Alerts = resp.N, resp.Alerts
						return err
					})
					seq++
					per[c] = append(per[c], op)
				}
				last = len(plan)
			}
		}(c)
	}
	wg.Wait()
	p := &Phase{Start: start, Wall: time.Since(start), Rounds: g.stop}
	for _, ops := range per {
		p.Ops = append(p.Ops, ops...)
	}
	return p, ctx.Err()
}
