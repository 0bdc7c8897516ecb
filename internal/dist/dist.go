package dist

import (
	"errors"
	"sort"
	"time"
)

// Empirical is an empirical distribution over durations, backed by the
// sorted sample set and a suffix-sum table for O(log n) conditional
// expectations.
type Empirical struct {
	sorted []time.Duration // ascending
	suffix []float64       // suffix[i] = sum(sorted[i:]) in float seconds
}

// FromDurations builds an empirical distribution from samples. The input
// slice is not retained or mutated.
func FromDurations(ds []time.Duration) (*Empirical, error) {
	if len(ds) == 0 {
		return nil, errors.New("dist: no samples")
	}
	e := &Empirical{sorted: make([]time.Duration, len(ds))}
	copy(e.sorted, ds)
	sort.Slice(e.sorted, func(i, j int) bool { return e.sorted[i] < e.sorted[j] })
	e.suffix = make([]float64, len(e.sorted)+1)
	for i := len(e.sorted) - 1; i >= 0; i-- {
		e.suffix[i] = e.suffix[i+1] + e.sorted[i].Seconds()
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
// the conditional mass onto the long ones. When no sample exceeds u the
// distribution has nothing left to say; the fallback grows with uptime (10%
// of it, floored at one minute) so downstream exit estimates stay finite
// and monotone (mirrored by model.MinRemaining).
func (e *Empirical) CondExpRemaining(u time.Duration) time.Duration {
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > u })
	n := len(e.sorted) - idx
	if n == 0 {
		min := u / 10
		if min < time.Minute {
			min = time.Minute
		}
		return min
	}
	mean := e.suffix[idx] / float64(n)
	return time.Duration(mean*float64(time.Second)) - u
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
