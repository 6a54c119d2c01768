package sts

import (
	"github.com/stslib/sts/internal/core"
	"github.com/stslib/sts/internal/eval"
	"github.com/stslib/sts/internal/linking"
	"github.com/stslib/sts/internal/model"
)

// Trajectory linking — deciding which trajectories from two sensing
// systems belong to the same objects (the application of Section II).

// Link is one matched pair produced by LinkDatasets: d1[I] ↔ d2[J] with
// the similarity Score that linked them.
type Link = linking.Link

// LinkOptions configures LinkDatasets. MinScore rejects weak links;
// MaxSpeed (m/s), when positive, enables the FTL-style velocity
// feasibility pre-filter on the merged trajectory.
type LinkOptions = linking.Options

// LinkDatasets links two trajectory sets one-to-one, best-similarity
// first. See the linking package for the algorithm.
func LinkDatasets(d1, d2 Dataset, scorer Scorer, opts LinkOptions) ([]Link, error) {
	return linking.GreedyLink(d1, d2, scorer, opts)
}

// LinkDatasetsOptimal links two trajectory sets one-to-one maximizing
// the total similarity of the assignment (Hungarian algorithm). Slower
// than LinkDatasets but immune to greedy lock-in.
func LinkDatasetsOptimal(d1, d2 Dataset, scorer Scorer, opts LinkOptions) ([]Link, error) {
	return linking.OptimalLink(d1, d2, scorer, opts)
}

// Feasible reports whether two trajectories could belong to one object
// whose speed never exceeds maxSpeed — the global-velocity-threshold
// compatibility test of FTL. Sample pairs closer than minGap seconds are
// exempt (noise makes instantaneous speed unbounded as Δt → 0).
func Feasible(a, b Trajectory, maxSpeed, minGap float64) bool {
	return linking.Feasible(a, b, maxSpeed, minGap)
}

// MergeByTime interleaves two trajectories into one time-sorted sequence
// — the merged trajectory of Eq. 10 and of the FTL compatibility test.
func MergeByTime(a, b Trajectory) Trajectory { return linking.MergeByTime(a, b) }

// Contact episodes.

// Episode is a maximal interval during which two objects' co-location
// probability stayed at or above a threshold.
type Episode = core.Episode

// ContactEpisodes scans the overlap of two prepared trajectories on a
// uniform time step and returns the intervals where the co-location
// probability is at least threshold — the contact-tracing view of STS.
// Prepare the trajectories once with Measure.Prepare.
func ContactEpisodes(a, b *PreparedTrajectory, step, threshold float64) ([]Episode, error) {
	return core.ContactEpisodes(a, b, step, threshold)
}

// compile-time interface conformance checks for the facade's aliases.
var (
	_ eval.Scorer   = eval.FuncScorer{}
	_ model.Dataset = Dataset{}
)
