package cox

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"lava/internal/stats"
)

// Subject is one training observation.
type Subject struct {
	X        []float64 // covariates
	Duration time.Duration
	Event    bool // exit observed (true) or censored (false)
}

// Model is a fitted Cox PH model.
type Model struct {
	Beta []float64 // coefficients
	mean []float64 // feature standardization
	std  []float64

	// Breslow baseline cumulative hazard: step function at event times.
	baseTimes []time.Duration
	baseHaz   []float64 // cumulative hazard values
}

// The fitting settings: Newton iterations stop after maxIter or once no
// coefficient moves by tol, and an L2 penalty of ridge keeps the Hessian
// well-conditioned.
const (
	maxIter = 25
	tol     = 1e-6
	ridge   = 1e-4
)

// Fit estimates the model from subjects.
func Fit(subjects []Subject) (*Model, error) {
	if len(subjects) == 0 {
		return nil, errors.New("cox: no subjects")
	}
	p := len(subjects[0].X)
	for i, s := range subjects {
		if len(s.X) != p {
			return nil, fmt.Errorf("cox: subject %d has %d covariates, want %d", i, len(s.X), p)
		}
	}

	m := &Model{Beta: make([]float64, p), mean: make([]float64, p), std: make([]float64, p)}
	m.standardize(subjects)

	// Sort descending by duration so the risk set at each event time is a
	// prefix scan.
	order := make([]int, len(subjects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return subjects[order[a]].Duration > subjects[order[b]].Duration
	})

	xs := make([][]float64, len(subjects))
	for i, idx := range order {
		xs[i] = m.scale(subjects[idx].X)
	}

	for iter := 0; iter < maxIter; iter++ {
		grad := make([]float64, p)
		hess := make([][]float64, p)
		for i := range hess {
			hess[i] = make([]float64, p)
		}

		// Running sums over the risk set (descending durations).
		s0 := 0.0
		s1 := make([]float64, p)
		s2 := make([][]float64, p)
		for i := range s2 {
			s2[i] = make([]float64, p)
		}

		i := 0
		for i < len(order) {
			t := subjects[order[i]].Duration
			// Add all subjects with duration >= t (they enter the risk set).
			j := i
			for j < len(order) && subjects[order[j]].Duration == t {
				x := xs[j]
				w := math.Exp(dot(m.Beta, x))
				s0 += w
				for a := 0; a < p; a++ {
					s1[a] += w * x[a]
					for b := 0; b < p; b++ {
						s2[a][b] += w * x[a] * x[b]
					}
				}
				j++
			}
			// Breslow: all tied events at t share the same risk-set sums.
			for k := i; k < j; k++ {
				if !subjects[order[k]].Event {
					continue
				}
				x := xs[k]
				for a := 0; a < p; a++ {
					grad[a] += x[a] - s1[a]/s0
					for b := 0; b < p; b++ {
						hess[a][b] += s2[a][b]/s0 - (s1[a]/s0)*(s1[b]/s0)
					}
				}
			}
			i = j
		}

		// Ridge regularization.
		for a := 0; a < p; a++ {
			grad[a] -= ridge * m.Beta[a]
			hess[a][a] += ridge
		}

		step, ok := stats.Solve(hess, grad, 1e-12)
		if !ok {
			return nil, errors.New("cox: newton step: singular hessian")
		}
		maxStep := 0.0
		for a := 0; a < p; a++ {
			m.Beta[a] += step[a]
			if v := math.Abs(step[a]); v > maxStep {
				maxStep = v
			}
		}
		if maxStep < tol {
			break
		}
	}

	m.fitBaseline(subjects)
	return m, nil
}

// standardize computes feature means/stds for conditioning.
func (m *Model) standardize(subjects []Subject) {
	p := len(m.mean)
	n := float64(len(subjects))
	for _, s := range subjects {
		for a := 0; a < p; a++ {
			m.mean[a] += s.X[a]
		}
	}
	for a := 0; a < p; a++ {
		m.mean[a] /= n
	}
	for _, s := range subjects {
		for a := 0; a < p; a++ {
			d := s.X[a] - m.mean[a]
			m.std[a] += d * d
		}
	}
	for a := 0; a < p; a++ {
		m.std[a] = math.Sqrt(m.std[a] / n)
		if m.std[a] < 1e-12 {
			m.std[a] = 1
		}
	}
}

func (m *Model) scale(x []float64) []float64 {
	out := make([]float64, len(x))
	for a := range x {
		out[a] = (x[a] - m.mean[a]) / m.std[a]
	}
	return out
}

// Risk returns the relative hazard exp(beta . x~). Higher risk means
// shorter expected lifetime.
func (m *Model) Risk(x []float64) float64 {
	return math.Exp(dot(m.Beta, m.scale(x)))
}

// fitBaseline computes the Breslow baseline cumulative hazard.
func (m *Model) fitBaseline(subjects []Subject) {
	type ev struct {
		t time.Duration
		d int // events at t
	}
	// Ascending by time; risk set = subjects with duration >= t.
	idx := make([]int, len(subjects))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return subjects[idx[a]].Duration < subjects[idx[b]].Duration })

	// Suffix sums of weights in ascending order = risk set denominator.
	w := make([]float64, len(subjects))
	for i, id := range idx {
		w[i] = math.Exp(dot(m.Beta, m.scale(subjects[id].X)))
	}
	suffix := make([]float64, len(subjects)+1)
	for i := len(subjects) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + w[i]
	}

	cum := 0.0
	i := 0
	for i < len(idx) {
		t := subjects[idx[i]].Duration
		deaths := 0
		j := i
		for j < len(idx) && subjects[idx[j]].Duration == t {
			if subjects[idx[j]].Event {
				deaths++
			}
			j++
		}
		if deaths > 0 && suffix[i] > 0 {
			cum += float64(deaths) / suffix[i]
			m.baseTimes = append(m.baseTimes, t)
			m.baseHaz = append(m.baseHaz, cum)
		}
		i = j
	}
}

// CumHazard returns the baseline cumulative hazard at t.
func (m *Model) CumHazard(t time.Duration) float64 {
	i := sort.Search(len(m.baseTimes), func(i int) bool { return m.baseTimes[i] > t })
	if i == 0 {
		return 0
	}
	return m.baseHaz[i-1]
}

// Survival returns S(t | x) = exp(-Lambda0(t) * risk(x)).
func (m *Model) Survival(x []float64, t time.Duration) float64 {
	return math.Exp(-m.CumHazard(t) * m.Risk(x))
}

// ExpRemaining integrates the conditional survival to estimate
// E(T - u | T > u, x), restricted to the observed time span.
func (m *Model) ExpRemaining(x []float64, u time.Duration) time.Duration {
	su := m.Survival(x, u)
	if su <= 1e-12 {
		return 0
	}
	var integral float64
	prevT := u
	for i, t := range m.baseTimes {
		if t <= u {
			continue
		}
		s := math.Exp(-m.baseHaz[i] * m.Risk(x))
		integral += (s / su) * (t - prevT).Hours()
		prevT = t
		if s/su < 1e-6 {
			break
		}
	}
	return time.Duration(integral * float64(time.Hour))
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
