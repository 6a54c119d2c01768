package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
)

// genTrajectory builds a deterministic synthetic trajectory.
func genTrajectory(id string, seed int64, n int) model.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	tr := model.Trajectory{ID: id, Samples: make([]model.Sample, n)}
	x, y := rng.Float64()*1000, rng.Float64()*1000
	t := float64(rng.Intn(1000))
	for i := range tr.Samples {
		tr.Samples[i] = model.Sample{T: t, Loc: geo.Point{X: x, Y: y}}
		t += 1 + float64(rng.Intn(30))
		x += rng.NormFloat64() * 5
		y += rng.NormFloat64() * 5
	}
	return tr
}

func sameTrajectory(t *testing.T, got, want model.Trajectory) {
	t.Helper()
	if got.ID != want.ID {
		t.Fatalf("id %q != %q", got.ID, want.ID)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d samples, want %d", got.ID, len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s sample %d: %+v != %+v", got.ID, i, got.Samples[i], want.Samples[i])
		}
	}
}

// sameContent asserts the store holds exactly the given trajectories,
// id-for-id and sample-for-sample.
func sameContent(t *testing.T, s *Store, want map[string]model.Trajectory) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("store has %d records, want %d", s.Len(), len(want))
	}
	for id, tr := range want {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("record %q missing", id)
		}
		sameTrajectory(t, got, tr)
	}
}

func TestStoreMutationAndDecode(t *testing.T) {
	s := New(Options{})
	a := genTrajectory("a", 1, 20)
	b := genTrajectory("b", 2, 5)

	refA, err := s.Add(a)
	if err != nil {
		t.Fatal(err)
	}
	if refA.IsZero() || refA.N != 20 || refA.ID != "a" {
		t.Fatalf("bad ref %+v", refA)
	}
	if _, err := s.Add(a); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if _, err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	sameContent(t, s, map[string]model.Trajectory{"a": a, "b": b})

	// Replace bumps the generation and changes what decodes.
	b2 := genTrajectory("b", 3, 9)
	refB2, err := s.Replace(b2)
	if err != nil {
		t.Fatal(err)
	}
	if refB2.Gen == 0 || refB2.N != 9 {
		t.Fatalf("bad ref %+v", refB2)
	}
	sameContent(t, s, map[string]model.Trajectory{"a": a, "b": b2})

	// The old ref still decodes the old content (snapshot semantics).
	old, err := refA.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, old, a)

	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); err == nil {
		t.Fatal("double Remove succeeded")
	}
	sameContent(t, s, map[string]model.Trajectory{"b": b2})

	st := s.Stats()
	if st.Records != 1 || st.LiveBytes <= 0 || st.ArenaBytes < st.LiveBytes {
		t.Fatalf("implausible stats %+v", st)
	}
	if st.Persistent {
		t.Fatal("in-memory store claims persistence")
	}

	ids := s.IDs()
	if len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("IDs = %v", ids)
	}
	bounds, ok := s.Bounds()
	if !ok || bounds.Width() < 0 {
		t.Fatalf("Bounds = %+v, %v", bounds, ok)
	}
}

func TestStoreQuantizedFootprint(t *testing.T) {
	lossless := New(Options{})
	quantized := New(Options{CoordStep: 0.001})
	for i := 0; i < 50; i++ {
		tr := genTrajectory(fmt.Sprintf("t%03d", i), int64(i), 50)
		if _, err := lossless.Add(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := quantized.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	lb, qb := lossless.Stats().LiveBytes, quantized.Stats().LiveBytes
	if qb >= lb {
		t.Fatalf("quantized records (%d B) not smaller than lossless (%d B)", qb, lb)
	}
	// Both are far below the boxed []Sample footprint (24 B/sample payload
	// alone).
	boxed := int64(50 * 50 * 24)
	if lb >= boxed {
		t.Fatalf("lossless columnar (%d B) not below boxed samples (%d B)", lb, boxed)
	}
	// Quantized decode stays within step/2 of the original.
	tr := genTrajectory("t000", 0, 50)
	got, ok := quantized.Get("t000")
	if !ok {
		t.Fatal("t000 missing")
	}
	for i := range got.Samples {
		if d := math.Abs(got.Samples[i].Loc.X - tr.Samples[i].Loc.X); d > 0.0005001 {
			t.Fatalf("sample %d off by %v", i, d)
		}
	}
}

func TestStoreArenaReleasesDeadBlocks(t *testing.T) {
	s := New(Options{Shards: 1, BlockBytes: 1 << 10})
	for i := 0; i < 200; i++ {
		if _, err := s.Add(genTrajectory(fmt.Sprintf("t%03d", i), int64(i), 20)); err != nil {
			t.Fatal(err)
		}
	}
	grown := s.Stats().ArenaBytes
	for i := 0; i < 190; i++ {
		if err := s.Remove(fmt.Sprintf("t%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := s.Stats().ArenaBytes
	if shrunk >= grown {
		t.Fatalf("arena did not release dead blocks: %d -> %d", grown, shrunk)
	}
	sameContent(t, s, trajMap(190, 200))
}

func trajMap(lo, hi int) map[string]model.Trajectory {
	out := make(map[string]model.Trajectory)
	for i := lo; i < hi; i++ {
		id := fmt.Sprintf("t%03d", i)
		out[id] = genTrajectory(id, int64(i), 20)
	}
	return out
}
