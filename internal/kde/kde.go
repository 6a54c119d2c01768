// Package kde implements the kernel density estimation machinery of
// Section IV-B: a non-parametric estimate of an object's *personalized*
// speed distribution, built only from the speed samples of that object's
// own trajectory, with a Gaussian kernel and Silverman's rule-of-thumb
// bandwidth. The transition probability of moving between two locations in
// a time interval is then the kernel-density mass at the implied speed
// (Eq. 7).
package kde

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// ErrNoSamples is returned when a density is requested from an estimator
// built with no samples.
var ErrNoSamples = errors.New("kde: no samples")

// invSqrt2Pi = 1/√(2π), the Gaussian kernel normalizing constant.
const invSqrt2Pi = 0.3989422804014327

// GaussianKernel is the standard normal density, the kernel K(·) used
// throughout the paper.
func GaussianKernel(u float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*u*u)
}

// EpanechnikovKernel is the mean-square-error-optimal compact-support
// kernel, K(u) = 3/4·(1−u²) on |u| ≤ 1. The paper's estimator accepts any
// non-negative kernel; this is the classic alternative to the Gaussian.
func EpanechnikovKernel(u float64) float64 {
	if u < -1 || u > 1 {
		return 0
	}
	return 0.75 * (1 - u*u)
}

// Kernel bundles a kernel function with the radius of its support in
// bandwidth units (the window outside which contributions are negligible
// or exactly zero).
type Kernel struct {
	Name   string
	Func   func(u float64) float64
	Cutoff float64
}

// Predefined kernels.
var (
	Gaussian     = Kernel{Name: "gaussian", Func: GaussianKernel, Cutoff: 8}
	Epanechnikov = Kernel{Name: "epanechnikov", Func: EpanechnikovKernel, Cutoff: 1}
)

// SilvermanBandwidth returns the rule-of-thumb bandwidth the paper adopts,
//
//	h = (4σ̂⁵ / (3n))^{1/5},
//
// where σ̂ is the sample standard deviation. When the samples are (nearly)
// degenerate — σ̂ ≈ 0, as for an object moving at perfectly constant
// speed — Silverman's rule collapses to zero and the speed density
// becomes a spike so thin that the grid-quantized transition evaluation
// can miss it entirely, zeroing the whole measure. We therefore floor the
// bandwidth at 5% of the mean magnitude: observed speeds are ratios of
// noisy distances over timestamps and always carry at least a few percent
// of measurement spread, so the floor encodes instrument reality rather
// than a numerical fudge.
func SilvermanBandwidth(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	mean, std := meanStd(samples)
	h := math.Pow(4*math.Pow(std, 5)/(3*float64(n)), 0.2)
	floor := 0.05 * math.Abs(mean)
	if floor == 0 {
		floor = 1e-6
	}
	if h < floor {
		h = floor
	}
	return h
}

func meanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if len(xs) > 1 {
		std = math.Sqrt(ss / n)
	}
	return mean, std
}

// Estimator is a one-dimensional kernel density estimator Q̂ over a fixed
// sample set (Gaussian kernel unless constructed with NewWithKernel). Its
// estimate is fixed at construction, and it is safe for concurrent use.
type Estimator struct {
	samples []float64 // sorted ascending
	h       float64
	mean    float64
	std     float64
	kern    Kernel

	// Tabulated mass values for MassFast: table[i] = Mass(tabMin + i·tabStep).
	// The first MassFast call builds them under tableOnce; the fields are
	// written only inside it and read only after it.
	tableOnce       sync.Once
	table           []float64
	tabMin, tabStep float64
	tabMax          float64
}

// New builds an estimator over samples with Silverman's bandwidth. It
// copies the sample slice. An error is returned for an empty sample set.
func New(samples []float64) (*Estimator, error) {
	return NewWithBandwidth(samples, SilvermanBandwidth(samples))
}

// NewWithBandwidth builds an estimator with an explicit bandwidth h > 0
// and the Gaussian kernel.
func NewWithBandwidth(samples []float64, h float64) (*Estimator, error) {
	return NewWithKernel(samples, h, Gaussian)
}

// NewWithKernel builds an estimator with an explicit bandwidth and
// kernel. The kernel may be any non-negative function (the generality the
// paper's Section IV-B claims); Kernel.Cutoff bounds its support.
func NewWithKernel(samples []float64, h float64, k Kernel) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return nil, errors.New("kde: bandwidth must be positive and finite")
	}
	if k.Func == nil || k.Cutoff <= 0 {
		return nil, errors.New("kde: kernel must have a function and a positive cutoff")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	mean, std := meanStd(s)
	return &Estimator{samples: s, h: h, mean: mean, std: std, kern: k}, nil
}

// tableBins is the resolution of the tabulated fast path. The kernel is
// smooth at scale h and the table spans the support with step ≤ h/4, so
// linear interpolation error is far below any ranking-relevant signal.
const tableBins = 2048

// buildTable precomputes Mass over the kernel support for MassFast.
//
// The table is filled sample-major ("scatter"): each sample adds its kernel
// contribution to every node inside its support window. The sum per node is
// the same one massExact computes, reassociated, so table values agree with
// massExact to within floating-point reassociation error (≈1e-13 relative;
// the equivalence test pins this). For the Gaussian kernel the sweep uses
// the exact recurrence
//
//	K(u+s) = K(u) · exp(−u·s − s²/2),
//
// whose second factor itself advances by the constant ratio exp(−s²), so
// filling the whole window costs two multiplications per node instead of
// one exp — table construction is paid by every interpolated trajectory
// and used to dominate matrix-scoring setup. The sweep runs as
// four independent lanes of stride s = 4·step (see scatterGaussian): the
// two-multiply recurrence is a serial dependency chain, and splitting it
// into lanes breaks the chain so the multiplies pipeline. Each lane also
// takes a quarter of the steps, which *tightens* the rounding drift.
func (e *Estimator) buildTable() {
	cutoff := e.kern.Cutoff
	e.tabMin = e.samples[0] - cutoff*e.h
	e.tabMax = e.samples[len(e.samples)-1] + cutoff*e.h
	span := e.tabMax - e.tabMin
	if span <= 0 {
		span = e.h
		e.tabMax = e.tabMin + span
	}
	bins := tableBins
	if minBins := int(span/(e.h/4)) + 2; minBins > bins {
		bins = minBins
	}
	const maxBins = 1 << 16
	if bins > maxBins {
		bins = maxBins
	}
	e.tabStep = span / float64(bins-1)
	e.table = make([]float64, bins)
	w := cutoff * e.h
	gaussian := e.kern.Name == Gaussian.Name
	for _, s := range e.samples {
		// Nodes with |node − s| ≤ cutoff·h. Boundary membership differs
		// from Density's half-open window only where the kernel is ≤K(cutoff),
		// far below every tolerance in use.
		lo := int(math.Ceil((s - w - e.tabMin) / e.tabStep))
		if lo < 0 {
			lo = 0
		}
		hi := int(math.Floor((s + w - e.tabMin) / e.tabStep))
		if hi > bins-1 {
			hi = bins - 1
		}
		if lo > hi {
			continue
		}
		u := (e.tabMin + float64(lo)*e.tabStep - s) / e.h
		c := e.tabStep / e.h
		if gaussian {
			scatterGaussian(e.table[lo:hi+1], u, c)
		} else {
			for i := lo; i <= hi; i++ {
				e.table[i] += e.kern.Func(u) / invSqrt2Pi
				u += c
			}
		}
	}
	// table[i] holds Σ K(u)/invSqrt2Pi; scale by the kernel constant and
	// 1/|S| to obtain Mass = h·Q̂.
	scale := invSqrt2Pi / float64(len(e.samples))
	for i := range e.table {
		e.table[i] *= scale
	}
}

// scatterGaussian adds exp(−(u+i·c)²/2) to t[i] for i in [0, len(t)).
//
// The straightforward sweep is a serial two-multiply recurrence per node
// (k *= m; m *= q), so its throughput is pinned by multiply latency. Here
// the nodes are split into four interleaved lanes of stride s = 4c; within
// a lane the same exact recurrence holds with s in place of c
//
//	k ← k · M,  M ← M · exp(−s²),
//
// so the four chains are independent and pipeline, and each runs a quarter
// of the steps (less accumulated rounding than the serial sweep). Short
// windows fall back to the serial recurrence.
func scatterGaussian(t []float64, u, c float64) {
	n := len(t)
	if n < 8 {
		k := math.Exp(-0.5 * u * u)
		m := math.Exp(-u*c - 0.5*c*c)
		q := math.Exp(-c * c)
		for i := range t {
			t[i] += k
			k *= m
			m *= q
		}
		return
	}
	s := 4 * c
	// Lane seeds: kernel values at u, u+c, u+2c, u+3c, derived from k0 by
	// the single-step recurrence (exact, same as the serial sweep computes).
	q1 := math.Exp(-c * c)
	m1 := math.Exp(-u*c - 0.5*c*c)
	k0 := math.Exp(-0.5 * u * u)
	k1 := k0 * m1
	m2 := m1 * q1
	k2 := k1 * m2
	k3 := k2 * m2 * q1
	// Per-lane stride multipliers M_j = exp(−(u+j·c)·s − s²/2) and their
	// common ratio Q = exp(−s²).
	hs2 := 0.5 * s * s
	mm0 := math.Exp(-u*s - hs2)
	mm1 := math.Exp(-(u+c)*s - hs2)
	mm2 := math.Exp(-(u+2*c)*s - hs2)
	mm3 := math.Exp(-(u+3*c)*s - hs2)
	qq := math.Exp(-s * s)
	i := 0
	for ; i+4 <= n; i += 4 {
		t[i] += k0
		t[i+1] += k1
		t[i+2] += k2
		t[i+3] += k3
		k0 *= mm0
		mm0 *= qq
		k1 *= mm1
		mm1 *= qq
		k2 *= mm2
		mm2 *= qq
		k3 *= mm3
		mm3 *= qq
	}
	for ; i < n; i++ {
		uu := u + float64(i)*c
		t[i] += math.Exp(-0.5 * uu * uu)
	}
}

// Bandwidth returns the bandwidth h in use.
func (e *Estimator) Bandwidth() float64 { return e.h }

// NumSamples returns |S|.
func (e *Estimator) NumSamples() int { return len(e.samples) }

// Mean returns the sample mean.
func (e *Estimator) Mean() float64 { return e.mean }

// Std returns the (population) sample standard deviation.
func (e *Estimator) Std() float64 { return e.std }

// Density evaluates the kernel density estimate Q̂(v) of Eq. 6:
//
//	Q̂(v) = 1/(h|S|) · Σ_{v'∈S} K((v − v')/h).
//
// Samples farther than 8h from v contribute less than 1e-14 of the kernel
// peak and are skipped; the sorted sample array makes that window a binary
// search.
func (e *Estimator) Density(v float64) float64 {
	cutoff := e.kern.Cutoff
	lo := sort.SearchFloat64s(e.samples, v-cutoff*e.h)
	hi := sort.SearchFloat64s(e.samples, v+cutoff*e.h)
	var sum float64
	for _, s := range e.samples[lo:hi] {
		sum += e.kern.Func((v - s) / e.h)
	}
	return sum / (e.h * float64(len(e.samples)))
}

// Mass evaluates h·Q̂(v) = 1/|S| · Σ K((v−v')/h), the dimensionless
// "probability of the speed" the paper uses as the transition probability
// in Eq. 7. Its value lies in [0, K(0)] ⊂ [0, 0.3990).
func (e *Estimator) Mass(v float64) float64 {
	return e.massExact(v)
}

func (e *Estimator) massExact(v float64) float64 {
	return e.Density(v) * e.h
}

// MassFast evaluates Mass via the tabulated kernel mass with linear
// interpolation. It is the hot path of the S-T probability estimator: a
// similarity computation evaluates the transition mass millions of times,
// and the exact sum over samples would dominate the runtime.
//
// The first call builds the table (see buildTable), so an estimator that
// is never asked for a transition — a trajectory that a query's filter
// rejects before interpolating it — never pays for one. Later calls pay
// one atomic load and one branch for the check.
func (e *Estimator) MassFast(v float64) float64 {
	e.tableOnce.Do(e.buildTable)
	if v <= e.tabMin || v >= e.tabMax {
		return 0
	}
	pos := (v - e.tabMin) / e.tabStep
	i := int(pos)
	if i >= len(e.table)-1 {
		return e.table[len(e.table)-1]
	}
	f := pos - float64(i)
	return e.table[i]*(1-f) + e.table[i+1]*f
}

// Quantile returns the q-th sample quantile (q in [0,1]) by linear
// interpolation of the order statistics. Used to bound plausible speeds
// when truncating the transition-probability support.
func (e *Estimator) Quantile(q float64) float64 {
	if q <= 0 {
		return e.samples[0]
	}
	if q >= 1 {
		return e.samples[len(e.samples)-1]
	}
	pos := q * float64(len(e.samples)-1)
	i := int(pos)
	f := pos - float64(i)
	if i+1 >= len(e.samples) {
		return e.samples[len(e.samples)-1]
	}
	return e.samples[i]*(1-f) + e.samples[i+1]*f
}

// Kernel returns the kernel in use.
func (e *Estimator) Kernel() Kernel { return e.kern }

// MaxSupport returns a speed beyond which the density is negligible: the
// largest sample plus the kernel's cutoff radius in bandwidths.
func (e *Estimator) MaxSupport() float64 {
	return e.samples[len(e.samples)-1] + e.kern.Cutoff*e.h
}
