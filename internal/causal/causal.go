package causal

import (
	"errors"
	"math"

	"lava/internal/stats"
)

// Input is a treated time series with an intervention index and an optional
// control series (e.g. the untouched half of an A/B split, §5.2).
type Input struct {
	Treated []float64
	Control []float64 // optional; must match len(Treated) when present
	PreEnd  int       // intervention index: Treated[:PreEnd] is pre-period
}

// Result mirrors the three CausalImpact panels of Fig. 7.
type Result struct {
	// Counterfactual is the model's prediction of the treated series had
	// the intervention not happened (defined over the full series; the
	// pre-period segment shows model fit).
	Counterfactual []float64

	// PointEffect is observed minus counterfactual (panel 2).
	PointEffect []float64

	// CumulativeEffect is the running sum of post-period point effects
	// (panel 3); pre-period entries are zero.
	CumulativeEffect []float64

	// AvgEffect is the mean post-period point effect — the number reported
	// in Table 1 ("+4.9 pp").
	AvgEffect float64

	// CI is the 95% confidence interval on AvgEffect.
	CI [2]float64

	// RelEffect is AvgEffect divided by the mean counterfactual level.
	RelEffect float64
}

// Significant reports whether the 95% CI excludes zero.
func (r *Result) Significant() bool {
	return (r.CI[0] > 0 && r.CI[1] > 0) || (r.CI[0] < 0 && r.CI[1] < 0)
}

// Analyze fits the counterfactual and computes effects. seed drives the
// bootstrap.
func Analyze(in Input, seed int64) (*Result, error) {
	n := len(in.Treated)
	if in.PreEnd < 8 || in.PreEnd >= n {
		return nil, errors.New("causal: pre-period must have >= 8 points and end before the series does")
	}
	if in.Control != nil && len(in.Control) != n {
		return nil, errors.New("causal: control length mismatch")
	}

	// Design: [1, t, control?]. Fit on the pre-period by least squares.
	cols := 2
	if in.Control != nil {
		cols = 3
	}
	X := make([][]float64, in.PreEnd)
	for t := 0; t < in.PreEnd; t++ {
		row := make([]float64, cols)
		row[0] = 1
		row[1] = float64(t) / float64(n) // scaled trend
		if in.Control != nil {
			row[2] = in.Control[t]
		}
		X[t] = row
	}
	beta, err := ols(X, in.Treated[:in.PreEnd])
	if err != nil {
		return nil, err
	}

	res := &Result{
		Counterfactual:   make([]float64, n),
		PointEffect:      make([]float64, n),
		CumulativeEffect: make([]float64, n),
	}
	for t := 0; t < n; t++ {
		pred := beta[0] + beta[1]*float64(t)/float64(n)
		if in.Control != nil {
			pred += beta[2] * in.Control[t]
		}
		res.Counterfactual[t] = pred
		res.PointEffect[t] = in.Treated[t] - pred
	}
	cum := 0.0
	var post []float64
	var cfLevel float64
	for t := in.PreEnd; t < n; t++ {
		cum += res.PointEffect[t]
		res.CumulativeEffect[t] = cum
		post = append(post, res.PointEffect[t])
		cfLevel += res.Counterfactual[t]
	}
	res.AvgEffect = stats.Mean(post)
	cfLevel /= float64(len(post))
	if cfLevel != 0 {
		res.RelEffect = res.AvgEffect / cfLevel
	}

	// CI: the average post-period effect under the null is distributed like
	// the mean of len(post) pre-period residuals; stationary bootstrap
	// preserves their autocorrelation.
	resid := make([]float64, in.PreEnd)
	for t := 0; t < in.PreEnd; t++ {
		resid[t] = in.Treated[t] - res.Counterfactual[t]
	}
	block := math.Max(4, float64(in.PreEnd)/10)
	m := len(post)
	lo, hi, err := stats.StationaryBootstrapCI(resid, func(xs []float64) float64 {
		// Mean of the first m resampled residuals models the noise on the
		// post-period average.
		if m < len(xs) {
			xs = xs[:m]
		}
		return stats.Mean(xs)
	}, block, 2000, 0.95, seed)
	if err != nil {
		return nil, err
	}
	res.CI = [2]float64{res.AvgEffect - (hi-lo)/2, res.AvgEffect + (hi-lo)/2}
	return res, nil
}

// ols solves min ||X b - y||^2 via normal equations with partial-pivot
// elimination (tiny systems).
func ols(X [][]float64, y []float64) ([]float64, error) {
	if len(X) == 0 {
		return nil, errors.New("causal: empty design")
	}
	p := len(X[0])
	A := make([][]float64, p)
	b := make([]float64, p)
	for i := range A {
		A[i] = make([]float64, p)
	}
	for r := range X {
		for i := 0; i < p; i++ {
			b[i] += X[r][i] * y[r]
			for j := 0; j < p; j++ {
				A[i][j] += X[r][i] * X[r][j]
			}
		}
	}
	// Tiny ridge for numerical safety.
	for i := 0; i < p; i++ {
		A[i][i] += 1e-9
	}
	x, ok := stats.Solve(A, b, 1e-15)
	if !ok {
		return nil, errors.New("causal: singular design")
	}
	return x, nil
}
