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

	// TickEvery and SampleEvery are the simulator's one clock (§5.1): policy,
	// injector and component ticks, and metric samples. Every run — offline
	// (sim.Machine), served or replayed (sim.Replay) — reads them.
	TickEvery   = 5 * time.Minute
	SampleEvery = time.Hour
)

// MinRemaining is the floor of every remaining-lifetime prediction: a model
// that believes a VM should already be gone cannot answer zero forever, so
// the floor grows with uptime — a tenth of it, truncated toward zero, and at
// least a minute — and host exit estimates stay finite and monotone (§3,
// App. G.3).
func MinRemaining(uptime time.Duration) time.Duration { return max(uptime/10, time.Minute) }

// FloorRemaining is the one rule every predictor answers by: rem when it is
// positive, MinRemaining(uptime) otherwise.
func FloorRemaining(rem, uptime time.Duration) time.Duration {
	if rem > 0 {
		return rem
	}
	return MinRemaining(uptime)
}

// FromHours converts fractional hours into a Duration. It saturates: hours
// past the int64 range, ±Inf included, give ±math.MaxInt64 nanoseconds
// (a plain conversion would wrap to math.MinInt64), and NaN gives 0.
func FromHours(h float64) time.Duration {
	ns := h * float64(time.Hour)
	switch {
	case ns != ns:
		return 0
	case ns >= math.MaxInt64: // float64(math.MaxInt64) is 2^63, one past the range
		return math.MaxInt64
	case ns <= -math.MaxInt64:
		return -math.MaxInt64
	}
	return time.Duration(ns)
}

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
