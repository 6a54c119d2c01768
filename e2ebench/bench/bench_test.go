package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: Percentile must sort
	}
	if got := Percentile(append([]float64(nil), xs...), 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := Percentile(append([]float64(nil), xs...), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if n := Beyond(1000, 99); n != 10 {
		t.Errorf("samples beyond p99 of 1000 = %d, want 10", n)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
	// A failed operation enters as +Inf and so misses any limit: eleven
	// failures in a thousand push p99 onto a failure.
	fails := make([]float64, 1000)
	for i := range fails {
		fails[i] = 1
		if i < 11 {
			fails[i] = math.Inf(1)
		}
	}
	if got := Percentile(fails, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11/1000 failures = %v, want +Inf", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestCompareTopK(t *testing.T) {
	r := func(id string, s float64) Ranked { return Ranked{ID: id, Score: s} }
	want := []Ranked{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.3), r("e", 0.2)}
	cases := []struct {
		name string
		got  []Ranked
		ok   bool
	}{
		{"identical", []Ranked{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.3)}, true},
		{"tie reordered", []Ranked{r("a", 0.9), r("c", 0.5), r("b", 0.5), r("d", 0.3)}, true},
		{"wrong member of a tie", []Ranked{r("a", 0.9), r("b", 0.5), r("x", 0.5), r("d", 0.3)}, false},
		{"wrong score", []Ranked{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.31)}, false},
		{"short", []Ranked{r("a", 0.9), r("b", 0.5), r("c", 0.5)}, false},
		{"swapped distinct scores", []Ranked{r("b", 0.5), r("a", 0.9), r("c", 0.5), r("d", 0.3)}, false},
	}
	for _, c := range cases {
		err := CompareTopK(c.got, want, 4, 1e-9)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}

	// The tie group {b, c, d} is cut at k=2: the reference's extra entry
	// shows the tie continues, so any member may fill the cut slot.
	cut := []Ranked{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.5)}
	if err := CompareTopK([]Ranked{r("a", 0.9), r("d", 0.5)}, cut[:3], 2, 1e-9); err != nil {
		t.Errorf("cut tie group compared by ID: %v", err)
	}
	if err := CompareTopK([]Ranked{r("a", 0.9), r("d", 0.4)}, cut[:3], 2, 1e-9); err == nil {
		t.Error("cut tie group accepted a wrong score")
	}
	// Without a continuing tie past k the last group is compared by ID.
	if err := CompareTopK([]Ranked{r("a", 0.9), r("x", 0.5)}, []Ranked{r("a", 0.9), r("b", 0.5), r("e", 0.2)}, 2, 1e-9); err == nil {
		t.Error("uncut last group accepted a foreign ID")
	}
	// Scores within tolerance are one tie group.
	if err := CompareTopK([]Ranked{r("c", 0.5), r("b", 0.5+1e-12)}, []Ranked{r("b", 0.5+1e-12), r("c", 0.5)}, 2, 1e-9); err != nil {
		t.Errorf("near-tie within tolerance: %v", err)
	}
}

func TestHandlerView(t *testing.T) {
	in := []Ranked{{"q", 1}, {"a", 0.5}, {"n", math.NaN()}, {"b", math.Inf(-1)}, {"c", 0.1}, {"d", 0.05}}
	got := HandlerView(in, "q", 2)
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "c" {
		t.Errorf("HandlerView = %v, want [a c]", got)
	}
}

// inputBytes serializes everything a run sends to the server.
func inputBytes(t *testing.T, w Workload, seed int64) []byte {
	t.Helper()
	in, err := Generate(w, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := in.CSV()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := json.Marshal(struct {
		Q []string
		W any
		S []Stream
		P [][]Step
	}{in.Queries, in.Watches, in.Streams, in.Plans})
	if err != nil {
		t.Fatal(err)
	}
	return append(csv, reqs...)
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a, b := inputBytes(t, w, 7), inputBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if bytes.Equal(a, inputBytes(t, w, 8)) {
			t.Errorf("%s: different seeds gave identical inputs", w.Name)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, w := range Workloads {
		in, err := Generate(w, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Append() {
			if len(in.Queries) == 0 || len(in.Corpus) != 2*len(in.Queries) {
				t.Errorf("%s: %d queries over %d trajectories", w.Name, len(in.Queries), len(in.Corpus))
			}
			continue
		}
		inCorpus := map[string]bool{}
		for _, tr := range in.Corpus {
			inCorpus[tr.ID] = true
		}
		for _, wt := range in.Watches {
			if len(wt.Members) != w.Members {
				t.Errorf("%s: watch %s has %d members", w.Name, wt.Name, len(wt.Members))
			}
			for _, m := range wt.Members {
				if !inCorpus[m] {
					t.Errorf("%s: member %s is not preloaded", w.Name, m)
				}
			}
		}
		for _, s := range in.Streams {
			if inCorpus[s.ID] {
				t.Errorf("%s: streamed %s is also preloaded", w.Name, s.ID)
			}
		}
		// Each client's plan keeps every stream's batches in order.
		for c, p := range in.Plans {
			last := map[int]int{}
			for _, st := range p {
				if st.Stream%len(in.Plans) != c {
					t.Errorf("%s: client %d holds stream %d", w.Name, c, st.Stream)
				}
				if prev, ok := last[st.Stream]; (ok && st.Batch != prev+1) || (!ok && st.Batch != 0) {
					t.Errorf("%s: stream %d batch %d out of order", w.Name, st.Stream, st.Batch)
				}
				last[st.Stream] = st.Batch
			}
		}
	}
}

func TestServerNeverSeesSeed(t *testing.T) {
	// stsserved gets deployment flags, an address, a data directory and
	// the generated corpus file — nothing derived from the seed except the
	// file's content and the requests.
	allowed := map[string]bool{"-addr": true, "-data-dir": true, "-dataset": true, "-grid": true, "-sigma": true, "-cache": true}
	for _, w := range Workloads {
		args := ServerArgs(w, "127.0.0.1:8080", "data", "corpus.csv")
		for i := 0; i < len(args); i += 2 {
			if !allowed[args[i]] || strings.Contains(strings.ToLower(args[i+1]), "seed") {
				t.Errorf("%s: unexpected server argument %q %q", w.Name, args[i], args[i+1])
			}
		}
	}
}
