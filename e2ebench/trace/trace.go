// Package trace records spans around the calls a traced stsserved makes
// into its own layers — the HTTP handler of internal/server, the
// engine.Service, and each shard's store.Corpus — without changing any
// program code: the decorators in this package wrap those boundaries from
// the outside.
//
// A span has a name, a layer, a start and an end, a parent, and the
// request ID the client sent (carried to every span of the request). The
// parent is the span carried by the call's context.Context when it has
// one, otherwise the innermost span still open on the calling goroutine:
// engine and store methods without a context run on the goroutine of the
// request that called them.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (SelfTime). Self times are folded per request and per
// phase as spans end, so memory stays bounded however many spans a request
// makes; raw spans are kept up to a cap for inspection. Everything stays
// in memory until WriteFile.
package trace

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/store"
)

// Layer names, as reported per request.
const (
	LayerServer = "server"
	LayerEngine = "engine"
	LayerStore  = "store"
)

// RequestIDHeader carries the client's request ID to the traced server.
const RequestIDHeader = "X-Request-Id"

// Span is one finished call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Interval is a half-open [Start, End) time range in nanoseconds.
type Interval struct{ Start, End int64 }

// SelfTime returns the part of parent not covered by the union of
// children, each clipped to parent. Children may overlap one another
// (concurrent calls); overlapping parts are counted once. children is
// reordered and clipped in place.
func SelfTime(parent Interval, children []Interval) int64 {
	dur := parent.End - parent.Start
	if dur <= 0 {
		return 0
	}
	cs := children[:0]
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	if len(cs) == 0 {
		return dur
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered := int64(0)
	cur := cs[0]
	for _, c := range cs[1:] {
		if c.Start <= cur.End {
			cur.End = max(cur.End, c.End)
			continue
		}
		covered += cur.End - cur.Start
		cur = c
	}
	covered += cur.End - cur.Start
	return dur - covered
}

// NameStat aggregates every span of one (layer, name).
type NameStat struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// Request summarizes one root span (one HTTP request, or one call made
// outside any request) once it has ended.
type Request struct {
	Req       string           `json:"req,omitempty"`
	Phase     string           `json:"phase"`
	Name      string           `json:"name"`
	DurNs     int64            `json:"dur_ns"`
	SelfNs    map[string]int64 `json:"self_ns"`
	ReqBytes  int64            `json:"req_bytes,omitempty"`
	RespBytes int64            `json:"resp_bytes,omitempty"`
}

// Mark is a phase boundary the load generator set, with the engine's
// counters at that instant.
type Mark struct {
	Name  string       `json:"name"`
	AtNs  int64        `json:"at_ns"`
	State *EngineState `json:"state,omitempty"`
}

// EngineState is a snapshot of the engine's cumulative counters. Profile
// comes from ProfileCacheStats, which the HTTP surfaces omit for exact
// engines.
type EngineState struct {
	Prepared engine.CacheStats `json:"prepared"`
	Profile  engine.CacheStats `json:"profile"`
	Prune    engine.PruneStats `json:"prune"`
	Store    store.Stats       `json:"store"`
}

// Snapshot reads eng's counters.
func Snapshot(eng engine.Service) *EngineState {
	return &EngineState{
		Prepared: eng.CacheStats(),
		Profile:  eng.ProfileCacheStats(),
		Prune:    eng.PruneStats(),
		Store:    eng.StoreStats(),
	}
}

// File is the tracer's output.
type File struct {
	Marks        []Mark                 `json:"marks"`
	Phases       map[string][]*NameStat `json:"phases"`
	Requests     []Request              `json:"requests"`
	Spans        []Span                 `json:"spans"`
	DroppedSpans int64                  `json:"dropped_spans"`
}

// Tracer collects spans. All methods are safe for concurrent use.
type Tracer struct {
	epoch    time.Time
	maxSpans int

	mu     sync.Mutex
	nextID uint64
	stacks map[uintptr][]*Active
	phase  string
	out    File
	byName map[string]map[string]*NameStat // phase → span name → aggregate
}

// New returns a tracer that keeps at most maxSpans raw spans (summaries are
// always complete).
func New(maxSpans int) *Tracer {
	return &Tracer{
		epoch:    time.Now(),
		maxSpans: maxSpans,
		stacks:   make(map[uintptr][]*Active),
		phase:    "boot",
		out:      File{Phases: make(map[string][]*NameStat)},
		byName:   make(map[string]map[string]*NameStat),
	}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Active is an open span.
type Active struct {
	t        *Tracer
	span     Span
	g        uintptr
	root     *Active
	parent   *Active
	phase    string
	children []Interval
	// Root-only accumulators.
	selfByLayer         map[string]int64
	reqBytes, respBytes int64
}

type ctxKey struct{}

// ContextWith returns ctx carrying a as the parent of spans started from it.
func ContextWith(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, ctxKey{}, a)
}

// Start opens a span. Its parent is the span ctx carries, else the
// innermost span open on this goroutine; ctx may be nil.
func (t *Tracer) Start(ctx context.Context, layer, name string) *Active {
	var parent *Active
	if ctx != nil {
		parent, _ = ctx.Value(ctxKey{}).(*Active)
	}
	return t.start(parent, false, "", layer, name)
}

// StartRequest opens a root span for one request with the client's ID
// (empty when the client sent none).
func (t *Tracer) StartRequest(req, layer, name string) *Active {
	return t.start(nil, true, req, layer, name)
}

func (t *Tracer) start(parent *Active, root bool, req, layer, name string) *Active {
	g := curg()
	t.mu.Lock()
	defer t.mu.Unlock()
	stack := t.stacks[g]
	if parent == nil && !root && len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	t.nextID++
	a := &Active{t: t, g: g, parent: parent}
	a.span = Span{ID: t.nextID, Layer: layer, Name: name, Req: req}
	if parent != nil {
		a.root = parent.root
		a.span.Parent = parent.span.ID
		a.span.Req = parent.span.Req
		a.phase = parent.phase
	} else {
		a.root = a
		a.phase = t.phase
		a.selfByLayer = make(map[string]int64, 3)
	}
	t.stacks[g] = append(stack, a)
	a.span.Start = t.now()
	return a
}

// AddBytes records request and response body sizes on a root span.
func (a *Active) AddBytes(req, resp int64) {
	a.t.mu.Lock()
	a.reqBytes += req
	a.respBytes += resp
	a.t.mu.Unlock()
}

// End closes the span, folding its self time into its request and phase.
func (a *Active) End() {
	t := a.t
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	a.span.End = end
	stack := t.stacks[a.g]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == a {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(t.stacks, a.g)
	} else {
		t.stacks[a.g] = stack
	}
	self := SelfTime(Interval{a.span.Start, end}, a.children)
	a.children = nil
	if a.parent != nil {
		a.parent.children = append(a.parent.children, Interval{a.span.Start, end})
	}
	a.root.selfByLayer[a.span.Layer] += self
	t.fold(a.phase, a.span, self)
	if len(t.out.Spans) < t.maxSpans {
		t.out.Spans = append(t.out.Spans, a.span)
	} else {
		t.out.DroppedSpans++
	}
	if a.root == a {
		t.out.Requests = append(t.out.Requests, Request{
			Req:       a.span.Req,
			Phase:     a.phase,
			Name:      a.span.Name,
			DurNs:     end - a.span.Start,
			SelfNs:    a.selfByLayer,
			ReqBytes:  a.reqBytes,
			RespBytes: a.respBytes,
		})
	}
}

// fold adds one span to its phase's per-name aggregate (a span name
// belongs to one layer). Caller holds mu.
func (t *Tracer) fold(phase string, s Span, self int64) {
	m := t.byName[phase]
	if m == nil {
		m = make(map[string]*NameStat)
		t.byName[phase] = m
	}
	ns := m[s.Name]
	if ns == nil {
		ns = &NameStat{Layer: s.Layer, Name: s.Name}
		m[s.Name] = ns
		t.out.Phases[phase] = append(t.out.Phases[phase], ns)
	}
	ns.Count++
	ns.TotalNs += s.End - s.Start
	ns.SelfNs += self
}

// Mark starts a new phase: root spans opened from now on are attributed
// to name. state is recorded with the mark.
func (t *Tracer) Mark(name string, state *EngineState) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phase = name
	t.out.Marks = append(t.out.Marks, Mark{Name: name, AtNs: at, State: state})
}

// WriteFile writes everything recorded so far to path as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(&t.out)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads a file written by WriteFile.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
