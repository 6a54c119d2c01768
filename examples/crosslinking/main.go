// Cross-system trajectory linking at corpus scale: two sensing systems
// each observe the same fleet of taxis; link every trajectory in one
// system to its counterpart in the other. This composes the engine layer
// with three parts of the library:
//
//   - the engine owns the corpus: top-k runs filter-and-refine, pruning
//     only candidates whose admissible upper bound cannot reach the
//     running best, and per-trajectory preparation is cached across
//     queries;
//   - the FTL-style velocity feasibility test vetoes physically
//     impossible links;
//   - STS scores the survivors and a greedy one-to-one assignment links
//     them, under a cancellable deadline.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	sts "github.com/stslib/sts"
)

func main() {
	const fleet = 40
	rng := rand.New(rand.NewSource(17))

	base := sts.GenerateTaxi(fleet, 17)
	var d1, d2 sts.Dataset
	for _, tr := range base {
		a, b := sts.AlternateSplit(tr)
		d1 = append(d1, sts.AddNoise(sts.Downsample(a, 0.6, rng), 10, rng))
		d2 = append(d2, sts.AddNoise(sts.Downsample(b, 0.4, rng), 10, rng))
	}

	bounds, _ := base.Bounds()
	grid, err := sts.NewGrid(bounds.Expand(140), 100)
	if err != nil {
		log.Fatal(err)
	}
	measure, err := sts.NewMeasure(sts.MeasureOptions{Grid: grid, NoiseSigma: 10})
	if err != nil {
		log.Fatal(err)
	}
	scorer := sts.NewScorer("STS", measure)

	// One engine owns the second system's corpus, and every query below
	// reuses the cached per-trajectory preparation.
	eng, err := sts.NewEngine(scorer, sts.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, tr := range d2 {
		// The split halves share the vehicle's ID; key the corpus by a
		// system-qualified ID as a real deployment would.
		tr.ID = fmt.Sprintf("sys2/%s", tr.ID)
		d2[i] = tr
		if _, err := eng.Add(tr); err != nil {
			log.Fatal(err)
		}
	}

	// Per-query top-1 through the engine: the admissible bounds prune, the
	// cache reuses preparation across the fleet of queries.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	top1 := 0
	for _, q := range d1 {
		matches, err := eng.TopK(ctx, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		if len(matches) == 1 && matches[0].ID == "sys2/"+q.ID {
			top1++
		}
	}
	stats := eng.CacheStats()
	fmt.Printf("engine top-1: %d/%d correct; prepared cache %d hits / %d misses (%.0f%% hit rate)\n",
		top1, fleet, stats.Hits, stats.Misses, 100*stats.HitRate())

	// Full one-to-one linking with the feasibility veto, cancellable.
	start := time.Now()
	links, err := sts.LinkDatasetsContext(ctx, d1, d2, scorer, sts.LinkOptions{
		MinScore: 1e-6,
		MaxSpeed: 40, // no taxi exceeds 144 km/h
	})
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for _, l := range links {
		if "sys2/"+d1[l.I].ID == d2[l.J].ID {
			correct++
		}
	}
	fmt.Printf("linked %d/%d trajectories, %d correct (precision %.2f, recall %.2f) in %s\n",
		len(links), fleet, correct,
		float64(correct)/float64(len(links)), float64(correct)/float64(fleet),
		time.Since(start).Round(10*time.Millisecond))
	for _, l := range links[:3] {
		fmt.Printf("  strongest: %s <-> %s (STS=%.4f)\n", d1[l.I].ID, d2[l.J].ID, l.Score)
	}
}
