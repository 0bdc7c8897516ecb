package simtime

import (
	"fmt"
	"math"
	"time"
)

// Common durations used throughout the reproduction.
const (
	Hour = time.Hour
	Day  = 24 * time.Hour
	Week = 7 * Day

	// CapLifetime is the production label cap: VM lifetimes longer than 7
	// days are capped during model training (Appendix B).
	CapLifetime = 168 * time.Hour
)

// Hours returns d expressed in (fractional) hours.
func Hours(d time.Duration) float64 { return d.Hours() }

// FromHours converts fractional hours into a Duration.
func FromHours(h float64) time.Duration {
	return time.Duration(h * float64(time.Hour))
}

// Seconds returns d expressed in fractional seconds.
func Seconds(d time.Duration) float64 { return d.Seconds() }

// Log10Hours returns log10 of d in hours. Durations of zero (or less) are
// clamped to one second to keep the log finite, matching the paper's
// treatment of lifetimes in the log domain (Appendix B).
func Log10Hours(d time.Duration) float64 {
	const floor = float64(time.Second) / float64(time.Hour)
	h := d.Hours()
	if h < floor {
		h = floor
	}
	return math.Log10(h)
}

// TemporalCostBuckets are the NILAS quantization boundaries from §4.2.
var TemporalCostBuckets = []time.Duration{
	0,
	30 * time.Minute,
	60 * time.Minute,
	90 * time.Minute,
	2 * time.Hour,
	3 * time.Hour,
	4 * time.Hour,
	6 * time.Hour,
	12 * time.Hour,
	24 * time.Hour,
	168 * time.Hour,
}

// TemporalCost quantizes deltaT into the index of the NILAS bucket it falls
// in. A deltaT of exactly a boundary falls into the bucket that starts at
// that boundary, so TemporalCost(0)=0, TemporalCost(70m)=2 (the example in
// §4.2), and anything >= 168h lands in the final bucket.
func TemporalCost(deltaT time.Duration) int {
	if deltaT <= 0 {
		return 0
	}
	for i := len(TemporalCostBuckets) - 1; i >= 0; i-- {
		if deltaT >= TemporalCostBuckets[i] {
			return i
		}
	}
	return 0
}

// LifetimeClass is a LAVA lifetime class (§4.3). LC1 covers lifetimes below
// one hour; each subsequent class covers one decade of hours. Lifetimes of
// 1000h and above clamp into LC4, mirroring the paper's four classes.
type LifetimeClass int

// The four LAVA lifetime classes.
const (
	LC1 LifetimeClass = 1 + iota // < 1h
	LC2                          // 1-10h
	LC3                          // 10-100h
	LC4                          // 100-1000h (and above)
)

// NumLifetimeClasses is the number of distinct LAVA lifetime classes.
const NumLifetimeClasses = 4

// ClassOf buckets a predicted lifetime into its LAVA lifetime class. The
// class scorer calls it once per host it scores, so it compares nanoseconds
// and leaves Hours()' division out; the class edges are whole hours, which
// both forms place identically.
func ClassOf(lifetime time.Duration) LifetimeClass {
	switch {
	case lifetime < time.Hour:
		return LC1
	case lifetime < 10*time.Hour:
		return LC2
	case lifetime < 100*time.Hour:
		return LC3
	default:
		return LC4
	}
}

// UpperBound returns the inclusive upper edge of the class interval: 1h for
// LC1, 10h for LC2, 100h for LC3 and 1000h for LC4. The LAVA host deadline
// is 1.1x this value (§4.3: "the total lifetime of a host does not exceed
// 1.1x its original lifetime class").
func (c LifetimeClass) UpperBound() time.Duration {
	switch c {
	case LC1:
		return time.Hour
	case LC2:
		return 10 * time.Hour
	case LC3:
		return 100 * time.Hour
	default:
		return 1000 * time.Hour
	}
}

// Deadline returns the misprediction-detection timeout for a host of this
// class: 1.1x the class upper bound.
func (c LifetimeClass) Deadline() time.Duration {
	return time.Duration(1.1 * float64(c.UpperBound()))
}

// Dec returns the next lower class, clamping at LC1. LAVA applies this when
// all residual VMs on a recycling host have exited (§4.3, Fig. 5b).
func (c LifetimeClass) Dec() LifetimeClass {
	if c <= LC1 {
		return LC1
	}
	return c - 1
}

// Inc returns the next higher class, clamping at LC4. LAVA applies this when
// a host outlives its deadline, i.e. a lifetime was underpredicted (§4.3,
// Fig. 5c).
func (c LifetimeClass) Inc() LifetimeClass {
	if c >= LC4 {
		return LC4
	}
	return c + 1
}

// Valid reports whether c is one of the four defined classes.
func (c LifetimeClass) Valid() bool { return c >= LC1 && c <= LC4 }

// String renders the class as "LC1".."LC4".
func (c LifetimeClass) String() string {
	if !c.Valid() {
		return fmt.Sprintf("LC(%d)", int(c))
	}
	return fmt.Sprintf("LC%d", int(c))
}
