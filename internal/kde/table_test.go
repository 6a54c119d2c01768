package kde

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestScatterTableMatchesMassExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []Kernel{Gaussian, Epanechnikov} {
		samples := make([]float64, 300)
		for i := range samples {
			samples[i] = 8 + 3*rng.NormFloat64()
		}
		e, err := NewWithKernel(samples, SilvermanBandwidth(samples), k)
		if err != nil {
			t.Fatal(err)
		}
		e.MassFast(0) // the first call builds the table
		var worst float64
		for i, got := range e.table {
			want := e.massExact(e.tabMin + float64(i)*e.tabStep)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		t.Logf("kernel=%s bins=%d worst=%g", k.Name, len(e.table), worst)
		if worst > 1e-12 {
			t.Fatalf("kernel %s: table deviates from massExact by %g", k.Name, worst)
		}
	}
}

// TestMassTableBuiltOnFirstUse pins the lazy mass table: construction
// builds none, and the first MassFast call builds one table, shared by 8
// goroutines that make that call together, whose values and answers are
// bit-identical to a table built before any call. It is not skipped under
// -short, so the race step runs it.
func TestMassTableBuiltOnFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = 8 + 3*rng.NormFloat64()
	}
	// The sweep crosses both edges of the support.
	speeds := make([]float64, 500)
	for i := range speeds {
		speeds[i] = -20 + 0.1*float64(i)
	}
	for _, k := range []Kernel{Gaussian, Epanechnikov} {
		newEst := func() *Estimator {
			e, err := NewWithKernel(samples, SilvermanBandwidth(samples), k)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		want := newEst()
		want.tableOnce.Do(want.buildTable)
		e := newEst()
		if e.table != nil {
			t.Fatalf("kernel %s: NewWithKernel built a %d-bin table", k.Name, len(e.table))
		}

		const workers = 8
		got := make([][]float64, workers)
		seen := make([]*float64, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < workers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				out := make([]float64, len(speeds))
				for i, v := range speeds {
					out[i] = e.MassFast(v)
				}
				got[g], seen[g] = out, &e.table[0]
			}(g)
		}
		start.Done()
		done.Wait()

		if len(e.table) != len(want.table) {
			t.Fatalf("kernel %s: %d bins, want %d", k.Name, len(e.table), len(want.table))
		}
		for i := range e.table {
			if e.table[i] != want.table[i] {
				t.Fatalf("kernel %s: bin %d = %v, eager build %v", k.Name, i, e.table[i], want.table[i])
			}
		}
		var nonzero int
		for g := range got {
			if seen[g] != &e.table[0] {
				t.Fatalf("kernel %s: goroutine %d read another table", k.Name, g)
			}
			for i, v := range speeds {
				w := want.MassFast(v)
				if got[g][i] != w {
					t.Fatalf("kernel %s: goroutine %d: MassFast(%v) = %v, eager table %v", k.Name, g, v, got[g][i], w)
				}
				if g == 0 && w != 0 {
					nonzero++
				}
			}
		}
		if nonzero == 0 || nonzero == len(speeds) {
			t.Fatalf("kernel %s: %d of %d speeds inside the support; the sweep must cross it", k.Name, nonzero, len(speeds))
		}
	}
}
