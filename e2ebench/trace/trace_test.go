package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	// parent [0,100) with sequential children [10,30) and [40,70).
	if got := SelfTime(Interval{0, 100}, []Interval{{10, 30}, {40, 70}}); got != 50 {
		t.Errorf("self = %d, want 50", got)
	}
	// No children: the whole duration.
	if got := SelfTime(Interval{5, 25}, nil); got != 20 {
		t.Errorf("self = %d, want 20", got)
	}
}

func TestSelfTimeConcurrent(t *testing.T) {
	// Overlapping (concurrent) children cover their union once:
	// [10,50) ∪ [20,60) ∪ [55,65) = [10,65) → 55 covered.
	if got := SelfTime(Interval{0, 100}, []Interval{{20, 60}, {10, 50}, {55, 65}}); got != 45 {
		t.Errorf("self = %d, want 45", got)
	}
	// Children running past the parent are clipped to it.
	if got := SelfTime(Interval{0, 100}, []Interval{{-10, 20}, {90, 130}}); got != 70 {
		t.Errorf("self = %d, want 70", got)
	}
	// A child covering everything leaves no self time.
	if got := SelfTime(Interval{0, 100}, []Interval{{0, 100}, {30, 40}}); got != 0 {
		t.Errorf("self = %d, want 0", got)
	}
}

func TestTracerAttributesSelfTimePerLayer(t *testing.T) {
	tr := New(100)
	tr.Mark("timed", nil)
	root := tr.StartRequest("req-1", LayerServer, "server.handler")
	ctx := ContextWith(context.Background(), root)
	// engine span found through the goroutine (no context)...
	eng := tr.Start(nil, LayerEngine, "engine.Append")
	st := tr.Start(nil, LayerStore, "store.Append")
	time.Sleep(2 * time.Millisecond)
	st.End()
	eng.End()
	// ...and two concurrent engine spans parented through the context.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := tr.Start(ctx, LayerEngine, "engine.ScoreBatchMin")
			time.Sleep(3 * time.Millisecond)
			a.End()
		}()
	}
	wg.Wait()
	root.AddBytes(10, 20)
	root.End()

	f := tr.out
	if len(f.Requests) != 1 {
		t.Fatalf("got %d requests, want 1", len(f.Requests))
	}
	rq := f.Requests[0]
	if rq.Req != "req-1" || rq.Phase != "timed" || rq.ReqBytes != 10 || rq.RespBytes != 20 {
		t.Errorf("request summary %+v", rq)
	}
	for _, s := range f.Spans {
		if s.Req != "req-1" {
			t.Errorf("span %s lost the request ID", s.Name)
		}
		if s.Name != "server.handler" && s.Parent == 0 {
			t.Errorf("span %s has no parent", s.Name)
		}
	}
	// Sequential children: the layer self times plus the overlap of the
	// concurrent engine spans (counted once in the handler's self time,
	// twice across the engine spans) add up to the root's duration.
	var overlap int64
	var sbm []Span
	for _, s := range f.Spans {
		if s.Name == "engine.ScoreBatchMin" {
			sbm = append(sbm, s)
		}
	}
	if len(sbm) == 2 {
		lo, hi := max(sbm[0].Start, sbm[1].Start), min(sbm[0].End, sbm[1].End)
		if hi > lo {
			overlap = hi - lo
		}
	}
	sum := rq.SelfNs[LayerServer] + rq.SelfNs[LayerEngine] + rq.SelfNs[LayerStore]
	if sum-overlap != rq.DurNs {
		t.Errorf("self times %v minus overlap %d = %d, want root duration %d", rq.SelfNs, overlap, sum-overlap, rq.DurNs)
	}
	if rq.SelfNs[LayerStore] < int64(2*time.Millisecond) {
		t.Errorf("store self %d below its 2ms sleep", rq.SelfNs[LayerStore])
	}
	var appendSelf int64
	for _, ns := range f.Phases["timed"] {
		if ns.Name == "engine.Append" {
			appendSelf = ns.SelfNs
			if ns.Count != 1 || ns.TotalNs-ns.SelfNs < int64(2*time.Millisecond) {
				t.Errorf("engine.Append aggregate %+v does not exclude its store child", ns)
			}
		}
	}
	if appendSelf == 0 {
		t.Error("engine.Append missing from the phase aggregate")
	}
}

func TestTracerCapsRawSpans(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Start(nil, LayerEngine, "engine.Get").End()
	}
	if len(tr.out.Spans) != 2 || tr.out.DroppedSpans != 3 || len(tr.out.Requests) != 5 {
		t.Errorf("spans %d dropped %d requests %d", len(tr.out.Spans), tr.out.DroppedSpans, len(tr.out.Requests))
	}
}
