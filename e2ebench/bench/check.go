package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/client"
	"github.com/stslib/sts/e2ebench/serving"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/engine"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// scoreTol is the score agreement the checks demand between served and
// reference scores; ties and threshold crossings within it are ambiguous
// and accepted either way.
const scoreTol = 1e-9

// checkSample is how many top-k queries, append events and read-backs the
// checks re-derive.
const checkSample = 24

// Reference is an in-process exhaustive engine over the same corpus the
// server preloaded, scored by the same scorer construction.
type Reference struct {
	eng    *engine.Engine
	scorer eval.Scorer
	byID   map[string]model.Trajectory
}

// NewReference reads the corpus file the way the server does and builds
// an exhaustive (pruning disabled) engine over it.
func NewReference(corpusPath string) (*Reference, error) {
	var (
		ds     model.Dataset
		bounds geo.Rect
	)
	err := dataset.StreamFile(corpusPath, dataset.ReadOptions{}, func(tr model.Trajectory) error {
		if len(ds) == 0 {
			bounds = tr.Bounds()
		} else {
			bounds = bounds.Union(tr.Bounds())
		}
		ds = append(ds, tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	scorer, _, err := serving.BuildScorer(bounds, len(ds) > 0, 100, 10, 0)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(scorer, engine.Options{DisablePruning: true, CacheSize: -1})
	if err != nil {
		return nil, err
	}
	ref := &Reference{eng: eng, scorer: scorer, byID: make(map[string]model.Trajectory, len(ds))}
	for _, tr := range ds {
		if _, err := eng.Add(tr); err != nil {
			return nil, err
		}
		ref.byID[tr.ID] = tr
	}
	return ref, nil
}

// TopK mirrors GET /v1/topk?id=q&k=k — the handler's k+1 fetch, self
// exclusion and non-finite filtering — with one extra entry so a tie
// group cut at k can be recognized.
func (r *Reference) TopK(ctx context.Context, q string, k int) ([]Ranked, error) {
	tr, ok := r.byID[q]
	if !ok {
		return nil, fmt.Errorf("reference has no %q", q)
	}
	ms, err := r.eng.TopKOpts(ctx, tr, engine.TopKOptions{K: k + 2, MinScore: math.Inf(-1), Exhaustive: true})
	if err != nil {
		return nil, err
	}
	rs := make([]Ranked, len(ms))
	for i, m := range ms {
		rs[i] = Ranked{ID: m.ID, Score: m.Score}
	}
	return HandlerView(rs, q, k+1), nil
}

// AlertRange returns how many members of w the trajectory tr scores at or
// above theta against, exhaustively: lo counts clear crossings, hi also
// counts scores within scoreTol of theta.
func (r *Reference) AlertRange(ctx context.Context, tr model.Trajectory, w api.Watch) (lo, hi int, err error) {
	cols := make(model.Dataset, 0, len(w.Members))
	for _, m := range w.Members {
		if m == tr.ID {
			continue
		}
		if mt, ok := r.byID[m]; ok {
			cols = append(cols, mt)
		}
	}
	scores, err := r.eng.ScoreBatch(ctx, model.Dataset{tr}, cols, nil)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range scores[0] {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		if s >= w.Theta+scoreTol {
			lo++
		}
		if s >= w.Theta-scoreTol {
			hi++
		}
	}
	return lo, hi, nil
}

// Score is the reference scorer on two trajectories.
func (r *Reference) Score(a, b model.Trajectory) (float64, error) { return r.scorer.Score(a, b) }

// Trajectory returns a corpus trajectory.
func (r *Reference) Trajectory(id string) (model.Trajectory, bool) {
	tr, ok := r.byID[id]
	return tr, ok
}

// Checks collects output-check failures.
type Checks struct {
	Passed int
	Errs   []string
}

func (c *Checks) ok() { c.Passed++ }
func (c *Checks) failf(format string, args ...any) {
	c.Errs = append(c.Errs, fmt.Sprintf(format, args...))
}

func toRanked(ms []api.Match) []Ranked {
	out := make([]Ranked, len(ms))
	for i, m := range ms {
		out[i] = Ranked{ID: m.ID, Score: m.Score}
	}
	return out
}

func sameMatches(a, b []api.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sampleIdx draws n distinct indices below size, deterministically from
// seed.
func sampleIdx(seed int64, size, n int) []int {
	p := rand.New(rand.NewSource(seed)).Perm(size)
	if n < len(p) {
		p = p[:n]
	}
	return p
}

// CheckQueries verifies a query phase: every timed answer equals the
// warm-up answer to the same query (the corpus is static), a seeded
// sample equals the exhaustive reference up to ties, and the served
// scorer agrees with the reference scorer on twin pairs.
func CheckQueries(ctx context.Context, cl *client.Client, ref *Reference, in *Inputs, k int, seed int64, warm, timed *Phase, c *Checks) error {
	first := make([][]api.Match, len(in.Queries))
	for _, op := range warm.Ops {
		if op.Err == nil {
			first[op.Index] = op.Matches
		}
	}
	mismatched := 0
	for _, op := range timed.Ops {
		if op.Err == nil && !sameMatches(op.Matches, first[op.Index]) {
			mismatched++
		}
	}
	if mismatched > 0 {
		c.failf("%d timed answers differ from the warm-up answer to the same query", mismatched)
	} else {
		c.ok()
	}
	for _, qi := range sampleIdx(seed, len(in.Queries), checkSample) {
		q := in.Queries[qi]
		want, err := ref.TopK(ctx, q, k)
		if err != nil {
			return err
		}
		if err := CompareTopK(toRanked(first[qi]), want, k, scoreTol); err != nil {
			c.failf("topk %s: %v", q, err)
		} else {
			c.ok()
		}
	}
	for _, qi := range sampleIdx(seed+1, len(in.Queries), 4) {
		q := in.Queries[qi]
		a, _ := ref.Trajectory(q)
		b, _ := ref.Trajectory(in.Twin[q])
		if err := checkSimilarity(ctx, cl, ref, a, b, c); err != nil {
			return err
		}
	}
	return nil
}

func checkSimilarity(ctx context.Context, cl *client.Client, ref *Reference, a, b model.Trajectory, c *Checks) error {
	resp, err := cl.Similarity(ctx, a.ID, b.ID)
	if err != nil {
		return err
	}
	want, err := ref.Score(a, b)
	if err != nil {
		return err
	}
	switch {
	case resp.Score == nil:
		c.failf("similarity %s/%s: served null, reference %.17g", a.ID, b.ID, want)
	case math.Abs(*resp.Score-want) > scoreTol:
		c.failf("similarity %s/%s: served %.17g, reference %.17g", a.ID, b.ID, *resp.Score, want)
	default:
		c.ok()
	}
	return nil
}

// MatchP1 is the share of queries whose served top-1 is their twin.
func MatchP1(in *Inputs, warm *Phase) float64 {
	hit, n := 0, 0
	for _, op := range warm.Ops {
		n++
		if op.Err == nil && len(op.Matches) > 0 && op.Matches[0].ID == in.Twin[in.Queries[op.Index]] {
			hit++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hit) / float64(n)
}

// prefix returns stream s as it stood after batch b, named id.
func prefix(s Stream, b int, id string) model.Trajectory {
	return api.Trajectory{ID: id, Samples: s.Samples[:s.Batches[b][1]]}.Model()
}

// CheckStreams verifies an append phase: every request succeeded and every
// append acknowledged the full sample count; per-append alert counts are
// identical across rounds (they cannot depend on interleaving) and equal
// an exhaustive re-evaluation on a seeded sample; the alerts add up to the
// server's counter; and a sample of streamed trajectories reads back as
// sent.
func CheckStreams(ctx context.Context, cl *client.Client, ref *Reference, in *Inputs, seed int64, warm, timed *Phase, alertsDelta float64, c *Checks) error {
	alerts := make([][]int, len(in.Plans))
	for ci, plan := range in.Plans {
		alerts[ci] = make([]int, len(plan))
	}
	for _, op := range warm.Ops {
		alerts[op.Client][op.Index] = op.Alerts
	}
	acked, drift, sum := 0, 0, 0
	for _, op := range timed.Ops {
		st := in.Plans[op.Client][op.Index]
		want := in.Streams[st.Stream].Batches[st.Batch][1]
		if op.Err != nil || (st.Batch > 0 && op.N != want) {
			acked++
		}
		if op.Alerts != alerts[op.Client][op.Index] {
			drift++
		}
		sum += op.Alerts
	}
	if acked > 0 {
		c.failf("%d requests failed or acknowledged the wrong sample count", acked)
	} else {
		c.ok()
	}
	if drift > 0 {
		c.failf("%d appends fired a different alert count than the same append in the warm-up round", drift)
	} else {
		c.ok()
	}
	if float64(sum) != alertsDelta {
		c.failf("appends reported %d alerts, sts_alerts_total grew by %g", sum, alertsDelta)
	} else {
		c.ok()
	}

	type event struct{ client, index int }
	var events []event
	for ci, plan := range in.Plans {
		for i, st := range plan {
			if st.Batch > 0 {
				events = append(events, event{ci, i})
			}
		}
	}
	for _, ei := range sampleIdx(seed, len(events), checkSample) {
		e := events[ei]
		st := in.Plans[e.client][e.index]
		s := in.Streams[st.Stream]
		tr := prefix(s, st.Batch, s.ID)
		lo, hi := 0, 0
		for _, w := range in.Watches {
			l, h, err := ref.AlertRange(ctx, tr, w)
			if err != nil {
				return err
			}
			lo, hi = lo+l, hi+h
		}
		if got := alerts[e.client][e.index]; got < lo || got > hi {
			c.failf("append %s batch %d: served %d alerts, reference %d..%d", s.ID, st.Batch, got, lo, hi)
		} else {
			c.ok()
		}
	}

	for _, si := range sampleIdx(seed+1, len(in.Streams), 6) {
		s := in.Streams[si]
		got, err := cl.Get(ctx, s.ID)
		if err != nil {
			c.failf("read back %s: %v", s.ID, err)
			continue
		}
		if !sameSamples(got.Samples, s.Samples) {
			c.failf("read back %s: %d samples differ from the %d acknowledged", s.ID, len(got.Samples), len(s.Samples))
		} else {
			c.ok()
		}
	}
	s := in.Streams[0]
	twin, _ := ref.Trajectory(s.Twin)
	return checkSimilarity(ctx, cl, ref, prefix(s, len(s.Batches)-1, s.ID), twin, c)
}

func sameSamples(a, b [][3]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// StreamMatchP1 is the share of streamed trajectories, grown through
// appends, whose served top-1 is their twin.
func StreamMatchP1(ctx context.Context, cl *client.Client, in *Inputs) (float64, error) {
	hit := 0
	for _, s := range in.Streams {
		resp, err := cl.TopK(ctx, s.ID, 1)
		if err != nil {
			return 0, err
		}
		if len(resp.Matches) > 0 && resp.Matches[0].ID == s.Twin {
			hit++
		}
	}
	return float64(hit) / float64(len(in.Streams)), nil
}
