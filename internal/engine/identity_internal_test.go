package engine

import (
	"testing"

	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/store"
)

// swapOnGet is a corpus whose at-th Get first runs swap, as a concurrent
// writer would between two steps of Engine.Get.
type swapOnGet struct {
	store.Corpus
	calls, at int
	swap      func()
}

func (c *swapOnGet) Get(id string) (model.Trajectory, bool) {
	c.calls++
	if c.calls == c.at {
		c.swap()
	}
	return c.Corpus.Get(id)
}

// TestGetKeysArraysByTheirOwnGeneration pins Get's generation check: when
// the record is replaced, by a variant of equal ID and length, between
// Get's read of its generation and its store lookup, the array Get returns
// was decoded from the new generation and must not resolve under the old
// generation's refKey. The next Get remembers it under its own.
func TestGetKeysArraysByTheirOwnGeneration(t *testing.T) {
	g, err := geo.NewGrid(geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 1100, Y: 1100}), 25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewSTS(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	variant := func(x0 float64) model.Trajectory {
		tr := model.Trajectory{ID: "x"}
		for k := 0; k < 8; k++ {
			tr.Samples = append(tr.Samples, model.Sample{T: 10 * float64(k), Loc: geo.Point{X: x0 + 4*float64(k), Y: 100}})
		}
		return tr
	}
	// Get's first store lookup finds an array it does not know; the swap
	// lands before the second, which follows the generation read.
	c := &swapOnGet{Corpus: store.New(store.Options{}), at: 2}
	e, err := New(exactScorer{m}, Options{Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Add(variant(100)); err != nil {
		t.Fatal(err)
	}
	c.swap = func() {
		if _, err := e.Replace(variant(140)); err != nil {
			t.Error(err)
		}
	}
	current := func() prepKey {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return refKey(e.refLocked("x"))
	}
	tr, ok := e.Get("x")
	if !ok || tr.Samples[0].Loc.X != 140 {
		t.Fatalf("Get returned %v, %v; want the replacement", tr.Samples, ok)
	}
	if k := e.keyFor(tr); k.gen != 0 {
		t.Fatalf("an array read across a replacement resolves under generation %d (current %d)", k.gen, current().gen)
	}
	tr, _ = e.Get("x")
	if k := e.keyFor(tr); k != current() {
		t.Fatalf("the next Get's array resolves under %+v, want the current record %+v", k, current())
	}
}
