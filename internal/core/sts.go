// Package core implements STS, the Spatial-Temporal Similarity measure of
// Section V: the average co-location probability of two trajectories over
// the timestamps of their merged trajectory, computed from the
// spatial-temporal probability distributions of Section IV.
//
// The package also provides the three ablation variants evaluated in
// Section VI-C: STS-N (no noise model), STS-G (one global speed
// distribution for all objects), and STS-F (frequency-based grid
// transitions shared by all objects).
package core

import (
	"errors"
	"fmt"

	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/kde"
	"github.com/stslib/sts/internal/markov"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stprob"
)

// TransitionProvider supplies the transition model used for one
// trajectory's S-T probability estimation — the transition probability, its
// optional radial fast-path form, and an upper bound on the object's
// plausible speed (m/s, 0 for unknown) used only to truncate candidate
// supports (see stprob.TransitionSpec).
//
// The provider abstraction is what separates STS from its ablation
// variants: the full measure builds a personalized KDE speed model from
// the trajectory itself; STS-G shares one pooled model; STS-F substitutes
// frequency-based grid transitions.
type TransitionProvider interface {
	For(tr model.Trajectory) (stprob.TransitionSpec, error)
}

// PersonalizedSpeed builds a fresh KDE speed model for each trajectory —
// the transition estimator of the full STS measure (Section IV-B).
type PersonalizedSpeed struct{}

// For implements TransitionProvider. Trajectories too short to carry speed
// information (fewer than two samples) get a zero transition model; they
// have no in-between timestamps to interpolate anyway.
func (PersonalizedSpeed) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	sm, err := kde.NewSpeedModel(tr)
	if err != nil {
		if errors.Is(err, kde.ErrNoSamples) {
			return stprob.TransitionSpec{Trans: zeroTransition}, nil
		}
		return stprob.TransitionSpec{}, err
	}
	return stprob.TransitionSpec{
		Trans:       sm.Transition,
		Radial:      sm.TransitionRadial,
		MaxSpeed:    sm.MaxSpeed(),
		MemoryBytes: sm.Estimator().MemoryBytes,
	}, nil
}

// GlobalSpeed applies one pooled speed model to every trajectory — the
// STS-G ablation ("a constant global speed distribution for all objects").
type GlobalSpeed struct {
	Model *kde.SpeedModel
}

// For implements TransitionProvider.
func (g GlobalSpeed) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	if g.Model == nil {
		return stprob.TransitionSpec{}, errors.New("core: GlobalSpeed provider has no model")
	}
	return stprob.TransitionSpec{
		Trans:    g.Model.Transition,
		Radial:   g.Model.TransitionRadial,
		MaxSpeed: g.Model.MaxSpeed(),
	}, nil
}

// FrequencyTransitions applies a frequency-based Markov grid-transition
// model to every trajectory — the STS-F ablation, the estimator used by
// prior work such as APM. MaxSpeed bounds support truncation; it is
// typically the pooled maximum speed of the training dataset (0 disables
// speed-based truncation). Markov transitions depend on the absolute
// cells, so no radial fast path exists.
type FrequencyTransitions struct {
	Model    *markov.TransitionModel
	MaxSpeed float64
}

// For implements TransitionProvider.
func (f FrequencyTransitions) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	if f.Model == nil {
		return stprob.TransitionSpec{}, errors.New("core: FrequencyTransitions provider has no model")
	}
	return stprob.TransitionSpec{Trans: f.Model.ProbPoints, MaxSpeed: f.MaxSpeed}, nil
}

// FixedTransition applies one externally supplied transition model to
// every trajectory — e.g. the Brownian random walk of stprob.
// BrownianTransition, which the paper identifies as the special case of
// STS's estimation under a Gaussian speed assumption. Radial, when set,
// must agree with Trans and enables the memoized evaluation (e.g.
// stprob.BrownianRadial for the Brownian walk).
type FixedTransition struct {
	Trans    stprob.Transition
	Radial   stprob.RadialTransition
	MaxSpeed float64
}

// For implements TransitionProvider.
func (f FixedTransition) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	if f.Trans == nil {
		return stprob.TransitionSpec{}, errors.New("core: FixedTransition provider has no transition")
	}
	return stprob.TransitionSpec{Trans: f.Trans, Radial: f.Radial, MaxSpeed: f.MaxSpeed}, nil
}

// StripRadial wraps a provider and discards its radial fast path, forcing
// the generic per-location transition evaluation. Equivalence tests and
// ablation benches use it to pin the lattice-offset-memoized path against
// the original one.
type StripRadial struct {
	Provider TransitionProvider
}

// For implements TransitionProvider.
func (s StripRadial) For(tr model.Trajectory) (stprob.TransitionSpec, error) {
	spec, err := s.Provider.For(tr)
	spec.Radial = nil
	return spec, err
}

// zeroTransition is the transition model of a trajectory that carries no
// mobility information: all movement is impossible.
func zeroTransition(a geo.Point, ta float64, b geo.Point, tb float64) float64 { return 0 }

// Options configures a Measure. Grid is required; zero-value fields take
// the documented defaults.
type Options struct {
	// Grid is the spatial partitioning R (required).
	Grid *geo.Grid
	// Noise is the sensing system's location-noise model. Default:
	// Gaussian with sigma equal to the grid cell size, following the
	// paper's guidance that the grid size should match the location error.
	Noise stprob.NoiseModel
	// Provider selects the transition estimator. Default:
	// PersonalizedSpeed (the full STS measure).
	Provider TransitionProvider
	// Exact disables support truncation so every sum ranges over all |R|
	// cells, exactly as written in Eq. 4 and Algorithm 1.
	Exact bool
	// MaxCandidateCells caps the in-between candidate support per
	// timestamp (0 selects DefaultMaxCandidateCells; negative disables
	// the cap). It bounds the worst-case cost of a similarity evaluation
	// without measurably moving rankings.
	MaxCandidateCells int
	// MaxSupportCells caps an observation's noise-distribution support
	// (0 selects DefaultMaxSupportCells; negative disables the cap).
	MaxSupportCells int
	// SpeedSlack compensates for the grid's quantization of speeds when
	// evaluating transitions (see stprob.Estimator.SpeedSlack). 0 selects
	// half the grid cell size; negative disables it, recovering the
	// textbook evaluation where cell centers are the only locations.
	// Exact mode always disables it.
	SpeedSlack float64
}

// DefaultMaxCandidateCells is the default cap on the candidate support of
// an in-between location distribution.
const DefaultMaxCandidateCells = 512

// DefaultMaxSupportCells is the default cap on the support of one
// observation's noise distribution. With the default 4-sigma truncation
// and a grid size equal to the noise scale (the paper's recommended
// setting), the full support is ~50 cells, below this cap; the cap only
// engages when the grid is much finer than the noise.
const DefaultMaxSupportCells = 96

// Measure computes the spatial-temporal similarity STS(Tra, Tra′) of
// Eq. 10. A Measure is immutable after construction and safe for
// concurrent use.
type Measure struct {
	grid     *geo.Grid
	noise    stprob.NoiseModel
	provider TransitionProvider
	exact    bool
	maxCand  int
	maxSupp  int
	slack    float64
}

// New builds a Measure from opts.
func New(opts Options) (*Measure, error) {
	if opts.Grid == nil {
		return nil, errors.New("core: Options.Grid is required")
	}
	noise := opts.Noise
	if noise == nil {
		noise = stprob.GaussianNoise{Sigma: opts.Grid.CellSize()}
	}
	provider := opts.Provider
	if provider == nil {
		provider = PersonalizedSpeed{}
	}
	maxCand := opts.MaxCandidateCells
	switch {
	case maxCand == 0:
		maxCand = DefaultMaxCandidateCells
	case maxCand < 0:
		maxCand = 0
	}
	maxSupp := opts.MaxSupportCells
	switch {
	case maxSupp == 0:
		maxSupp = DefaultMaxSupportCells
	case maxSupp < 0:
		maxSupp = 0
	}
	slack := opts.SpeedSlack
	switch {
	case opts.Exact || slack < 0:
		slack = 0
	case slack == 0:
		slack = opts.Grid.CellSize() / 2
	}
	return &Measure{grid: opts.Grid, noise: noise, provider: provider, exact: opts.Exact, maxCand: maxCand, maxSupp: maxSupp, slack: slack}, nil
}

// NewSTS returns the full STS measure: Gaussian noise of scale sigma and a
// personalized KDE speed model per trajectory.
func NewSTS(grid *geo.Grid, sigma float64) (*Measure, error) {
	return New(Options{Grid: grid, Noise: stprob.GaussianNoise{Sigma: sigma}})
}

// NewSTSN returns the STS-N ablation: observations are deterministic
// points (no noise model); the transition estimator is unchanged.
func NewSTSN(grid *geo.Grid) (*Measure, error) {
	return New(Options{Grid: grid, Noise: stprob.PointNoise{}})
}

// NewSTSG returns the STS-G ablation: one pooled speed model, estimated
// from the whole dataset, is shared by all objects.
func NewSTSG(grid *geo.Grid, sigma float64, pooled *kde.SpeedModel) (*Measure, error) {
	return New(Options{
		Grid:     grid,
		Noise:    stprob.GaussianNoise{Sigma: sigma},
		Provider: GlobalSpeed{Model: pooled},
	})
}

// NewSTSF returns the STS-F ablation: frequency-based grid transitions
// trained on historical data are shared by all objects.
func NewSTSF(grid *geo.Grid, sigma float64, freq *markov.TransitionModel, maxSpeed float64) (*Measure, error) {
	return New(Options{
		Grid:     grid,
		Noise:    stprob.GaussianNoise{Sigma: sigma},
		Provider: FrequencyTransitions{Model: freq, MaxSpeed: maxSpeed},
	})
}

// Grid returns the spatial partitioning in use.
func (m *Measure) Grid() *geo.Grid { return m.grid }

// Prepared caches the per-trajectory state needed to evaluate STS against
// many partners: the trajectory's estimator (with its personalized
// transition model) and the normalized noise distributions at its own
// observed timestamps, which are reused in every pairing.
type Prepared struct {
	Tr  model.Trajectory
	est *stprob.Estimator
	// obs[i] is the noise distribution at Tr.Samples[i].
	obs []stprob.Dist
	// modelBytes is the transition spec's MemoryBytes (nil for models
	// shared across trajectories).
	modelBytes func() int
}

// MemoryBytes estimates the prepared state's resident heap footprint: the
// trajectory's samples, the cached per-observation noise distributions,
// and a personalized transition model's own state — its sorted speeds
// and, once the first interpolation has built it, its KDE mass table
// (2,048 bins, 16 KB at the default resolution, larger than the
// distributions). The table appears after preparation, so the estimate
// grows when it is built; cache observability sums it per cached entry
// when the stats are read. It is safe to call concurrently with scoring.
func (p *Prepared) MemoryBytes() int {
	const (
		sampleSize = 24 // geo.Point + T
		distSize   = 48 // slice header pair (cells, probs)
	)
	b := len(p.Tr.Samples)*sampleSize + len(p.obs)*distSize
	for _, d := range p.obs {
		b += len(d.Cells) * (8 + 8)
	}
	if p.modelBytes != nil {
		b += p.modelBytes()
	}
	return b
}

// Prepare validates tr and builds its cached estimator state: the
// transition model with its speed bound, and the noise distributions at
// the observations. A personalized speed model defers its KDE table to
// the first interpolation, so preparing a trajectory that is only bounded
// never builds one.
func (m *Measure) Prepare(tr model.Trajectory) (*Prepared, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	spec, err := m.provider.For(tr)
	if err != nil {
		return nil, fmt.Errorf("core: transition model for %q: %w", tr.ID, err)
	}
	est := &stprob.Estimator{
		Grid:              m.grid,
		Noise:             m.noise,
		Trans:             spec.Trans,
		Radial:            spec.Radial,
		MaxSpeed:          spec.MaxSpeed,
		Exact:             m.exact,
		MaxCandidateCells: m.maxCand,
		MaxSupportCells:   m.maxSupp,
		SpeedSlack:        m.slack,
	}
	p := &Prepared{Tr: tr, est: est, obs: make([]stprob.Dist, tr.Len()), modelBytes: spec.MemoryBytes}
	for i, s := range tr.Samples {
		p.obs[i] = est.ObservedDist(s.Loc)
	}
	return p, nil
}

// DistAt returns the trajectory's normalized location distribution at time
// t, serving observed timestamps from the cache and reusing the cached
// noise distributions of the bracketing observations for in-between times.
func (p *Prepared) DistAt(t float64) (stprob.Dist, error) {
	if p.Tr.Len() == 0 || t < p.Tr.Start() || t > p.Tr.End() {
		return stprob.Dist{}, nil
	}
	exact, before, after := p.Tr.Bracket(t)
	if exact >= 0 {
		return p.obs[exact], nil
	}
	return p.est.BetweenDist(p.Tr.Samples[before], p.Tr.Samples[after],
		p.obs[before], p.obs[after], t)
}

// distAtWS is DistAt with caller-provided scratch: in-between results alias
// ws and stay valid only until its next use; observed-timestamp results
// alias the (immutable) preparation cache.
func (p *Prepared) distAtWS(ws *stprob.Workspace, t float64) (stprob.Dist, error) {
	at, ok := p.locate(t)
	if !ok {
		return stprob.Dist{}, nil
	}
	return p.distWS(ws, at, t)
}

// bracket is where a time falls in a prepared trajectory: at observation
// exact, or (exact < 0) strictly between observations before and after.
type bracket struct{ exact, before, after int }

// locate brackets t. ok is false when t lies outside the observed span,
// where the location distribution is zero (the third case of Eq. 5).
func (p *Prepared) locate(t float64) (at bracket, ok bool) {
	if p.Tr.Len() == 0 || t < p.Tr.Start() || t > p.Tr.End() {
		return bracket{}, false
	}
	at.exact, at.before, at.after = p.Tr.Bracket(t)
	return at, true
}

// distWS returns the location distribution at t, given its bracket at,
// on scratch ws.
func (p *Prepared) distWS(ws *stprob.Workspace, at bracket, t float64) (stprob.Dist, error) {
	if at.exact >= 0 {
		return p.obs[at.exact], nil
	}
	return p.est.BetweenDistWS(ws, p.Tr.Samples[at.before], p.Tr.Samples[at.after],
		p.obs[at.before], p.obs[at.after], t)
}

// mayMeet reports whether the interpolation at t, located between two
// observations, may put mass on any of cells (see stprob.Estimator.MayMeet).
func (p *Prepared) mayMeet(at bracket, t float64, cells []int) bool {
	return p.est.MayMeet(p.Tr.Samples[at.before], p.Tr.Samples[at.after], t, cells)
}

// pairScratch is the reusable evaluation state of one similarity
// computation: one workspace per side, because Algorithm 1 needs both
// location distributions alive at once to take their dot product.
type pairScratch struct {
	a, b stprob.Workspace
}

// scratchPool recycles pairScratch values across SimilarityPrepared calls,
// so steady-state matrix scoring performs no per-pair heap allocations
// while staying safe under concurrent scoring goroutines.
var scratchPool = newPool(func() *pairScratch { return new(pairScratch) })

// CoLocation returns CP(t | Tra1, Tra2) of Eq. 9 — the probability that
// the two objects are in the same grid cell at time t — implementing
// Algorithm 1: both location distributions are normalized and their
// element-wise product is summed over the cells both support. When one
// object is observed at t and the other's candidate cells provably miss
// that observation's noise support, the sum is 0.0 without interpolating
// (see coLocationWS).
func CoLocation(a, b *Prepared, t float64) (float64, error) {
	ws := scratchPool.get()
	cp, err := coLocationWS(ws, a, b, t)
	scratchPool.put(ws)
	return cp, err
}

// coLocationWS is CoLocation on caller-provided scratch. It brackets t in
// each trajectory once. When exactly one side is observed at t and the
// other lies strictly between two of its observations, the interpolated
// side first tests whether any cell of the observed noise support can be
// one of its Eq. 4 candidate cells; when none can, the two supports are
// disjoint and CP(t) is the exact 0.0 Dot would return, so the
// interpolation is skipped. Every other term runs the same operations in
// the same order as DistAt followed by Dot.
func coLocationWS(ws *pairScratch, a, b *Prepared, t float64) (float64, error) {
	atA, ok := a.locate(t)
	if !ok {
		return 0, nil
	}
	atB, okB := b.locate(t)
	if atA.exact < 0 && okB && atB.exact >= 0 && !a.mayMeet(atA, t, b.obs[atB.exact].Cells) {
		return 0, nil
	}
	da, err := a.distWS(&ws.a, atA, t)
	if err != nil {
		return 0, err
	}
	if da.IsZero() || !okB {
		return 0, nil
	}
	if atB.exact < 0 && atA.exact >= 0 && !b.mayMeet(atB, t, da.Cells) {
		return 0, nil
	}
	db, err := b.distWS(&ws.b, atB, t)
	if err != nil {
		return 0, err
	}
	return da.Dot(db), nil
}

// SimilarityPrepared returns STS(Tra, Tra′) of Eq. 10: the average of the
// co-location probabilities at all timestamps of the two trajectories.
func (m *Measure) SimilarityPrepared(a, b *Prepared) (float64, error) {
	n := a.Tr.Len() + b.Tr.Len()
	if n == 0 {
		return 0, errors.New("core: both trajectories are empty")
	}
	ws := scratchPool.get()
	defer scratchPool.put(ws)
	var total float64
	for _, s := range a.Tr.Samples {
		cp, err := coLocationWS(ws, a, b, s.T)
		if err != nil {
			return 0, err
		}
		total += cp
	}
	for _, s := range b.Tr.Samples {
		cp, err := coLocationWS(ws, a, b, s.T)
		if err != nil {
			return 0, err
		}
		total += cp
	}
	return total / float64(n), nil
}

// Similarity is the convenience form of SimilarityPrepared for one-off
// comparisons: it prepares both trajectories and evaluates Eq. 10.
func (m *Measure) Similarity(a, b model.Trajectory) (float64, error) {
	pa, err := m.Prepare(a)
	if err != nil {
		return 0, err
	}
	pb, err := m.Prepare(b)
	if err != nil {
		return 0, err
	}
	return m.SimilarityPrepared(pa, pb)
}
