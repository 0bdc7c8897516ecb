package km

import (
	"errors"
	"sort"
	"time"
)

// Observation is one subject: a duration and whether the event (VM exit)
// was observed or the subject was right-censored (still running at the end
// of the trace).
type Observation struct {
	Duration time.Duration
	Event    bool // true = exit observed, false = censored
}

// Curve is a fitted Kaplan-Meier survival curve: step function S(t).
type Curve struct {
	times []time.Duration // ascending event times
	surv  []float64       // S(t) immediately after each event time
	n     int
}

// Fit estimates the survival curve from observations.
func Fit(obs []Observation) (*Curve, error) {
	if len(obs) == 0 {
		return nil, errors.New("km: no observations")
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration < sorted[j].Duration })

	c := &Curve{n: len(obs)}
	atRisk := len(sorted)
	s := 1.0
	i := 0
	for i < len(sorted) {
		t := sorted[i].Duration
		deaths, leaving := 0, 0
		for i < len(sorted) && sorted[i].Duration == t {
			if sorted[i].Event {
				deaths++
			}
			leaving++
			i++
		}
		if deaths > 0 {
			s *= 1 - float64(deaths)/float64(atRisk)
			c.times = append(c.times, t)
			c.surv = append(c.surv, s)
		}
		atRisk -= leaving
	}
	return c, nil
}

// Survival returns S(t) = P(T > t).
func (c *Curve) Survival(t time.Duration) float64 {
	// Last event time <= t.
	i := sort.Search(len(c.times), func(i int) bool { return c.times[i] > t })
	if i == 0 {
		return 1
	}
	return c.surv[i-1]
}

// ExpRemaining computes E(T - u | T > u) by integrating the conditional
// survival function S(t)/S(u) from u to the last event time. If the curve
// does not reach zero (censoring), the tail beyond the last event time
// contributes its conditional mass times zero additional length — i.e. the
// estimate is a lower bound, the standard restricted-mean convention.
func (c *Curve) ExpRemaining(u time.Duration) time.Duration {
	su := c.Survival(u)
	if su <= 0 {
		return 0
	}
	// Integrate the step function S(t) from u to the end.
	var integral float64 // in hours x probability
	prevT := u
	prevS := su
	for i, t := range c.times {
		if t <= u {
			continue
		}
		integral += prevS * (t - prevT).Hours()
		prevT = t
		prevS = c.surv[i]
	}
	hours := integral / su
	return time.Duration(hours * float64(time.Hour))
}

// --- Stratified lookup table -------------------------------------------------

// Stratified is a lookup table of KM curves keyed by a stratum string, the
// §7 "lookup table" baseline.
type Stratified struct {
	curves map[string]*Curve
	global *Curve
}

// FitStratified fits one curve per stratum plus a global fallback. Strata
// with fewer than minCount observations fall back to the global curve.
func FitStratified(obs []Observation, strata []string, minCount int) (*Stratified, error) {
	if len(obs) != len(strata) {
		return nil, errors.New("km: observations/strata length mismatch")
	}
	global, err := Fit(obs)
	if err != nil {
		return nil, err
	}
	groups := map[string][]Observation{}
	for i, o := range obs {
		groups[strata[i]] = append(groups[strata[i]], o)
	}
	s := &Stratified{curves: make(map[string]*Curve, len(groups)), global: global}
	for k, g := range groups {
		if len(g) < minCount {
			continue
		}
		c, err := Fit(g)
		if err != nil {
			return nil, err
		}
		s.curves[k] = c
	}
	return s, nil
}

// Curve returns the stratum's curve, falling back to the global curve.
func (s *Stratified) Curve(stratum string) *Curve {
	if c, ok := s.curves[stratum]; ok {
		return c
	}
	return s.global
}

// ExpRemaining returns E(T - u | T > u) for the stratum.
func (s *Stratified) ExpRemaining(stratum string, u time.Duration) time.Duration {
	return s.Curve(stratum).ExpRemaining(u)
}

// Strata returns the number of fitted (non-fallback) strata.
func (s *Stratified) Strata() int { return len(s.curves) }
