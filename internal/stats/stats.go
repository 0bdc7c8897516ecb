package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Jain returns Jain's fairness index (Σx)² / (n·Σx²) for non-negative
// allocations: 1.0 when all shares are equal, 1/n for a one-hot vector.
// Empty or all-zero input is perfectly fair by convention (1.0) — the
// NaN-guard for zero-traffic classes.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Quantile returns the q-th empirical quantile (nearest-rank), q in [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// --- Welch t-test ---------------------------------------------------------

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest tests whether two independent samples have equal means.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, errors.New("stats: need >= 2 samples per group")
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	se2 := va/na + vb/nb
	if se2 == 0 {
		if ma == mb {
			return TTestResult{T: 0, DF: na + nb - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(1), DF: na + nb - 2, P: 0}, nil
	}
	t := (ma - mb) / math.Sqrt(se2)
	df := se2 * se2 / (va*va/(na*na*(na-1)) + vb*vb/(nb*nb*(nb-1)))
	p := 2 * studentTTail(math.Abs(t), df)
	return TTestResult{T: t, DF: df, P: p}, nil
}

// studentTTail returns P(T_df > t) for t >= 0 via the regularized
// incomplete beta function.
func studentTTail(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300

	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// --- Bootstrap --------------------------------------------------------------

// StationaryBootstrapCI resamples a time series in geometric blocks (mean
// block length blockLen), preserving autocorrelation — appropriate for the
// causal-impact cumulative-effect intervals.
func StationaryBootstrapCI(xs []float64, stat func([]float64) float64, blockLen float64, rounds int, conf float64, seed int64) (lo, hi float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, errors.New("stats: empty series")
	}
	if blockLen < 1 {
		blockLen = 1
	}
	if rounds <= 0 {
		rounds = 1000
	}
	if conf <= 0 || conf >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(seed))
	p := 1 / blockLen
	vals := make([]float64, rounds)
	buf := make([]float64, n)
	for r := 0; r < rounds; r++ {
		pos := rng.Intn(n)
		for i := 0; i < n; i++ {
			buf[i] = xs[pos]
			if rng.Float64() < p {
				pos = rng.Intn(n)
			} else {
				pos = (pos + 1) % n
			}
		}
		vals[r] = stat(buf)
	}
	alpha := (1 - conf) / 2
	return Quantile(vals, alpha), Quantile(vals, 1-alpha), nil
}

// Solve solves the dense system A x = b by Gaussian elimination with partial
// pivoting, for the small systems of the Cox Newton step and the causal
// regression. A and b are not modified. It reports false when a pivot's
// magnitude falls below tiny, the caller's singularity threshold.
func Solve(A [][]float64, b []float64, tiny float64) ([]float64, bool) {
	n := len(b)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		copy(a[i], A[i])
		a[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < tiny {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}
