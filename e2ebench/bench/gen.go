package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/datagen"
	"github.com/stslib/sts/internal/dataset"
	"github.com/stslib/sts/internal/model"
)

// Workload is one traffic mix. Every input derives from (Workload, seed);
// stsserved sees only the generated corpus file and the requests.
type Workload struct {
	Name string
	Why  string
	// Taxis is the number of taxis generated; each yields the two
	// alternating-split halves a-<i> and b-<i> of one trip, the paper's
	// matching pairs (twins).
	Taxis int
	// MinDuration and MaxDuration override the taxi trip length in
	// seconds (0 keeps datagen's default of 1200–2400 s).
	MinDuration, MaxDuration float64
	// Flags are this workload's stsserved flags beyond the common ones.
	Flags []string
	// K is the top-k depth of the query workloads.
	K int
	// Append workloads: Streams a-halves are streamed in batches of Batch
	// samples against Watches watches of Members static members each,
	// alerting at Theta.
	Streams, Watches, Members, Batch int
	Theta                            float64
}

// Append reports whether the workload streams appends rather than queries.
func (w Workload) Append() bool { return w.Streams > 0 }

// CommonFlags are the deployment flags every workload's server gets, on
// top of stsserved's defaults (the data directory, address and corpus file
// are per run).
var CommonFlags = []string{"-grid", "100", "-sigma", "10"}

// Workloads are the benchmark's traffic mixes.
var Workloads = []Workload{
	{
		Name:  "topk_resident",
		Why:   "top-k over a corpus that fits the engine caches: steady-state filter-and-refine and refinement dominate",
		Taxis: 300,
		K:     10,
	},
	{
		Name:  "topk_spill",
		Why:   "the same top-k mix on a corpus 3x the cache capacity: every query rebuilds evicted profiles (LRU churn)",
		Taxis: 52,
		Flags: []string{"-cache", "32"},
		K:     10,
	},
	{
		Name:        "append_watch",
		Why:         "durable streamed appends under standing watches: JSON decode, incremental profiles, WAL writes, standing evaluation",
		Taxis:       356,
		MinDuration: 3600,
		MaxDuration: 5400,
		Streams:     16,
		Watches:     2,
		Members:     128,
		Batch:       5,
		Theta:       0.1,
	},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Stream is one trajectory replayed through PUT (first batch) and appends.
// Every round streams it under the same ID: the round's PUT replaces the
// previous round's trajectory, so the corpus does not grow with the number
// of rounds a run fits in.
type Stream struct {
	ID   string
	Twin string
	// Samples is the whole trajectory as [t, x, y] rows; Batches are the
	// [lo, hi) sample ranges of its requests in order.
	Samples [][3]float64
	Batches [][2]int
}

// Step is one request of a round: batch Batch of stream Stream (batch 0 is
// the PUT that opens it).
type Step struct{ Stream, Batch int }

// Inputs is everything generated for one run.
type Inputs struct {
	// Corpus is preloaded through the server's -dataset CSV.
	Corpus model.Dataset
	// Queries is one pass of top-k query IDs in seeded order; Twin maps
	// each query (or streamed trajectory) to its twin's ID.
	Queries []string
	Twin    map[string]string
	// Watches, Streams and Plans drive the append workloads: Plans[c] is
	// client c's round, its own streams' batches in global time order.
	Watches []api.Watch
	Streams []Stream
	Plans   [][]Step
}

// Ops returns the number of requests in one pass (query workloads) or one
// round (append workloads).
func (in *Inputs) Ops() int {
	if len(in.Plans) == 0 {
		return len(in.Queries)
	}
	n := 0
	for _, p := range in.Plans {
		n += len(p)
	}
	return n
}

// CSV returns the corpus file's bytes.
func (in *Inputs) CSV() ([]byte, error) {
	var b bytes.Buffer
	if err := dataset.Write(&b, in.Corpus); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// taxiHalves generates w.Taxis taxi trips over Cities cities and prepares
// them the way experiments.Taxi does (10 m sensing noise, the paper's
// 20-sample length filter, alternating split), naming the halves a-<i> and
// b-<i>.
// Cities is how many independently seeded taxi cities (each with its own
// hotspots) a corpus overlays, so that a seed's cost does not hinge on one
// random hotspot layout.
const Cities = 4

func taxiHalves(w Workload, seed int64) (a, b model.Dataset) {
	cfg := datagen.DefaultTaxiConfig(w.Taxis)
	if w.MinDuration > 0 {
		cfg.MinDuration, cfg.MaxDuration = w.MinDuration, w.MaxDuration
	}
	var ds model.Dataset
	for c := 0; c < Cities; c++ {
		cfg.N = w.Taxis / Cities
		cfg.Seed = seed*Cities + int64(c)
		part, _ := datagen.GenerateTaxi(cfg)
		ds = append(ds, part...)
	}
	ds = model.AddNoiseDataset(ds, 10, rand.New(rand.NewSource(seed^0x5157)))
	ds = ds.FilterMinLen(20)
	a, b = model.SplitDataset(ds)
	for i := range a {
		a[i].ID = fmt.Sprintf("a-%04d", i)
		b[i].ID = fmt.Sprintf("b-%04d", i)
	}
	return a, b
}

// Generate builds the workload's inputs from seed.
func Generate(w Workload, seed int64, clients int) (*Inputs, error) {
	if w.Taxis%Cities != 0 {
		return nil, fmt.Errorf("bench: %s: %d taxis do not split over %d cities", w.Name, w.Taxis, Cities)
	}
	a, b := taxiHalves(w, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	in := &Inputs{Twin: make(map[string]string)}
	if !w.Append() {
		in.Corpus = append(append(model.Dataset{}, a...), b...)
		for _, i := range rng.Perm(len(a)) {
			in.Queries = append(in.Queries, a[i].ID)
			in.Twin[a[i].ID] = b[i].ID
		}
		return in, nil
	}

	perWatch := w.Streams / w.Watches
	need := w.Streams + w.Watches*(w.Members-perWatch)
	if len(a) < need || w.Streams%w.Watches != 0 || perWatch >= w.Members {
		return nil, fmt.Errorf("bench: %s needs %d taxis after filtering, has %d", w.Name, need, len(a))
	}
	// The first Streams taxis stream their a-half; their b-half twins are
	// static members of one watch each. The next taxis contribute static
	// non-twin members (b-halves). Everything else is background.
	in.Watches = make([]api.Watch, w.Watches)
	for i := range in.Watches {
		in.Watches[i] = api.Watch{Name: fmt.Sprintf("watch-%d", i), Theta: w.Theta}
	}
	next := w.Streams
	for i := 0; i < w.Streams; i++ {
		wi := i % w.Watches
		in.Watches[wi].Members = append(in.Watches[wi].Members, b[i].ID)
		in.Twin[a[i].ID] = b[i].ID
		in.Streams = append(in.Streams, newStream(a[i], b[i].ID, w.Batch))
	}
	for wi := range in.Watches {
		for len(in.Watches[wi].Members) < w.Members {
			in.Watches[wi].Members = append(in.Watches[wi].Members, b[next].ID)
			next++
		}
	}
	in.Corpus = append(in.Corpus, b[:next]...)
	in.Corpus = append(in.Corpus, a[w.Streams:]...)
	in.Corpus = append(in.Corpus, b[next:]...)
	in.Plans = plans(in.Streams, clients)
	return in, nil
}

func newStream(tr model.Trajectory, twin string, batch int) Stream {
	s := Stream{ID: tr.ID, Twin: twin, Samples: api.FromTrajectory(tr).Samples}
	for lo := 0; lo < len(s.Samples); lo += batch {
		hi := lo + batch
		if hi > len(s.Samples) {
			hi = len(s.Samples)
		}
		s.Batches = append(s.Batches, [2]int{lo, hi})
	}
	return s
}

// plans deals streams to clients round-robin (each client owns its
// streams, so per-trajectory order never depends on interleaving) and
// orders each client's batches by the time of their first sample.
func plans(streams []Stream, clients int) [][]Step {
	out := make([][]Step, clients)
	for si, s := range streams {
		c := si % clients
		for bi := range s.Batches {
			out[c] = append(out[c], Step{Stream: si, Batch: bi})
		}
	}
	for _, p := range out {
		sort.SliceStable(p, func(i, j int) bool {
			ti := streams[p[i].Stream].Samples[streams[p[i].Stream].Batches[p[i].Batch][0]][0]
			tj := streams[p[j].Stream].Samples[streams[p[j].Stream].Batches[p[j].Batch][0]][0]
			return ti < tj
		})
	}
	return out
}
