package sts_test

import (
	"math/rand"
	"testing"

	sts "github.com/stslib/sts"
)

func TestFacadeLinkDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := sts.GenerateTaxi(6, 21)
	var d1, d2 sts.Dataset
	for _, tr := range base {
		a, b := sts.AlternateSplit(tr)
		d1 = append(d1, a)
		d2 = append(d2, sts.Downsample(b, 0.5, rng))
	}
	bounds, _ := base.Bounds()
	g, err := sts.NewGrid(bounds.Expand(140), 100)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sts.NewMeasure(sts.MeasureOptions{Grid: g, NoiseSigma: 10})
	if err != nil {
		t.Fatal(err)
	}
	scorer := sts.NewScorer("STS", m)
	for name, link := range map[string]func(sts.Dataset, sts.Dataset, sts.Scorer, sts.LinkOptions) ([]sts.Link, error){
		"greedy":  sts.LinkDatasets,
		"optimal": sts.LinkDatasetsOptimal,
	} {
		links, err := link(d1, d2, scorer, sts.LinkOptions{MinScore: 1e-9, MaxSpeed: 40, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		correct := 0
		for _, l := range links {
			if l.I == l.J {
				correct++
			}
		}
		if correct < len(base)-1 {
			t.Errorf("%s: only %d/%d correct links", name, correct, len(base))
		}
	}
}

func TestFacadeContactEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := corridorWalk("a", 0, 12, 2, rng)
	b := corridorWalk("b", 0.5, 15, 2, rng)
	c := corridorWalk("c", 55, 15, 2, rng)
	m, err := sts.NewMeasure(sts.MeasureOptions{Grid: venueGrid(t), NoiseSigma: 3})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := m.Prepare(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := m.Prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := m.Prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	together, err := sts.ContactEpisodes(pa, pb, 5, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(together) == 0 {
		t.Error("no episodes for co-moving pair")
	}
	apart, err := sts.ContactEpisodes(pa, pc, 5, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(apart) != 0 {
		t.Errorf("episodes for separated pair: %+v", apart)
	}
}

func TestFacadeSTLIP(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := corridorWalk("a", 0, 12, 1, rng)
	b := corridorWalk("b", 2, 15, 1, rng)
	c := corridorWalk("c", 55, 15, 1, rng)
	if sts.LIP(a, b) >= sts.LIP(a, c) {
		t.Error("LIP does not discriminate")
	}
	if sts.STLIP(a, b, 0.5) >= sts.STLIP(a, c, 0.5) {
		t.Error("STLIP does not discriminate")
	}
}
