package dist

import (
	"errors"
	"math"
	"sort"
	"time"
)

// Empirical is an empirical distribution over durations, backed by the
// sorted sample set and, per sample, the mean of the samples from it on:
// an O(log n) conditional expectation, which Ramp hands out as ramp steps.
type Empirical struct {
	sorted []time.Duration // ascending
	exp    []time.Duration // exp[i] = the mean of sorted[i:], saturated
}

// FromDurations builds an empirical distribution from samples. The input
// slice is not retained or mutated.
func FromDurations(ds []time.Duration) (*Empirical, error) {
	if len(ds) == 0 {
		return nil, errors.New("dist: no samples")
	}
	e := &Empirical{sorted: make([]time.Duration, len(ds)), exp: make([]time.Duration, len(ds))}
	copy(e.sorted, ds)
	sort.Slice(e.sorted, func(i, j int) bool { return e.sorted[i] < e.sorted[j] })
	sum := 0.0 // of sorted[i:] in float seconds
	for i := len(e.sorted) - 1; i >= 0; i-- {
		sum += e.sorted[i].Seconds()
		// Saturate: a mean at the end of the Duration range would wrap to
		// math.MinInt64 (float64(math.MaxInt64) is 2^63, one past the range).
		e.exp[i] = math.MaxInt64
		if ns := sum / float64(len(e.sorted)-i) * float64(time.Second); ns < math.MaxInt64 {
			e.exp[i] = time.Duration(ns)
		}
	}
	return e, nil
}

// CDF returns the fraction of samples <= d.
func (e *Empirical) CDF(d time.Duration) float64 {
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > d })
	return float64(idx) / float64(len(e.sorted))
}

// CondExpRemaining returns E(L - u | L > u), the expected remaining
// lifetime given an observed uptime of u (Fig. 2). With a multi-modal
// population this grows with uptime: surviving past the short modes shifts
// the conditional mass onto the long ones. The answer is D - u, where D is
// the mean of the samples above u (saturated at math.MaxInt64) and the
// subtraction wraps as int64 subtraction does; it is not floored, so it may
// be zero or negative. When no sample exceeds u the distribution has
// nothing left to say, and the answer is max(u/10, time.Minute), u/10
// truncating toward zero, so downstream exit estimates stay finite and
// monotone. That is not model.MinRemaining, which truncates float64(u)*0.1
// instead; the two differ in the last nanoseconds, by up to ~150 ns near
// the end of the Duration range. model.DistTable answers this fallback as
// it is, and floors a non-positive D - u at model.MinRemaining.
func (e *Empirical) CondExpRemaining(u time.Duration) time.Duration {
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > u })
	if idx == len(e.sorted) {
		return max(u/10, time.Minute)
	}
	return e.exp[idx] - u
}

// Ramp returns CondExpRemaining as ramp steps: at an uptime u with k
// entries of at <= u, CondExpRemaining(u) is exp[k] - u for k < len(at),
// and the fallback past the last entry. at is the sorted sample set
// (repeated samples make steps no uptime falls on), len(exp) == len(at),
// and no entry of exp is negative. Both are shared and never written; both
// are nil when a sample is negative.
func (e *Empirical) Ramp() (at, exp []time.Duration) {
	if e.sorted[0] < 0 {
		return nil, nil
	}
	return e.sorted, e.exp
}

// WeightedCDF is a weighted empirical distribution: each sample carries a
// non-negative weight (e.g. the core-hours a VM consumed), and queries
// report fractions of total weight rather than of sample count. Fig. 1 uses
// it for the resource-consumption view of the lifetime distribution.
type WeightedCDF struct {
	sorted []weighted
	prefix []float64 // prefix[i] = sum of weights of sorted[:i]
}

type weighted struct {
	d time.Duration
	w float64
}

// NewWeightedCDF builds a weighted CDF from parallel sample/weight slices.
// Weights must be non-negative with a positive sum.
func NewWeightedCDF(ds []time.Duration, ws []float64) (*WeightedCDF, error) {
	if len(ds) == 0 {
		return nil, errors.New("dist: no samples")
	}
	if len(ds) != len(ws) {
		return nil, errors.New("dist: samples and weights differ in length")
	}
	c := &WeightedCDF{sorted: make([]weighted, len(ds))}
	for i := range ds {
		if ws[i] < 0 {
			return nil, errors.New("dist: negative weight")
		}
		c.sorted[i] = weighted{d: ds[i], w: ws[i]}
	}
	sort.Slice(c.sorted, func(i, j int) bool { return c.sorted[i].d < c.sorted[j].d })
	c.prefix = make([]float64, len(c.sorted)+1)
	for i, s := range c.sorted {
		c.prefix[i+1] = c.prefix[i] + s.w
	}
	if c.prefix[len(c.sorted)] <= 0 {
		return nil, errors.New("dist: zero total weight")
	}
	return c, nil
}

// FractionAtOrBelow returns the fraction of total weight carried by samples
// <= d.
func (c *WeightedCDF) FractionAtOrBelow(d time.Duration) float64 {
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i].d > d })
	return c.prefix[idx] / c.prefix[len(c.sorted)]
}
