package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 2.5 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs must be zero")
	}
	if math.Abs(StdDev(xs)-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("median = %v", Quantile(xs, 0.5))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestWelchTTestDetectsDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1.0
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Fatalf("p = %v for clearly different means", res.P)
	}
	if res.T >= 0 {
		t.Fatalf("t = %v, want negative (a < b)", res.T)
	}
}

func TestWelchTTestNullDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("p = %v for identical distributions; false positive", res.P)
	}
}

func TestWelchTTestEdgeCases(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("tiny samples must fail")
	}
	// Zero variance, equal means.
	res, err := WelchTTest([]float64{2, 2, 2}, []float64{2, 2, 2})
	if err != nil || res.P != 1 {
		t.Fatalf("equal constants: p = %v err = %v", res.P, err)
	}
	// Zero variance, different means.
	res, err = WelchTTest([]float64{1, 1, 1}, []float64{2, 2, 2})
	if err != nil || res.P != 0 {
		t.Fatalf("different constants: p = %v err = %v", res.P, err)
	}
}

func TestStudentTTailKnownValues(t *testing.T) {
	// For df -> large, t=1.96 should give ~0.025.
	got := studentTTail(1.96, 1000)
	if math.Abs(got-0.025) > 0.002 {
		t.Fatalf("tail(1.96, 1000) = %v, want ~0.025", got)
	}
	// t=0 -> 0.5.
	if got := studentTTail(0, 10); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("tail(0) = %v, want 0.5", got)
	}
	// Known value: df=1 (Cauchy), t=1 -> 0.25.
	if got := studentTTail(1, 1); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("tail(1, 1) = %v, want 0.25", got)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		l := regIncBeta(2.5, 1.5, x)
		r := 1 - regIncBeta(1.5, 2.5, 1-x)
		if math.Abs(l-r) > 1e-10 {
			t.Fatalf("symmetry violated at %v: %v vs %v", x, l, r)
		}
	}
}

func TestStationaryBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// AR(1)-ish series around 5.
	xs := make([]float64, 400)
	prev := 0.0
	for i := range xs {
		prev = 0.8*prev + rng.NormFloat64()
		xs[i] = 5 + prev
	}
	lo, hi, err := StationaryBootstrapCI(xs, Mean, 20, 400, 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 5.5 || hi < 4.5 {
		t.Fatalf("CI [%v, %v] implausible for mean ~5", lo, hi)
	}
	if lo >= hi {
		t.Fatalf("CI degenerate: [%v, %v]", lo, hi)
	}
	if _, _, err := StationaryBootstrapCI(nil, Mean, 10, 10, 0.95, 1); err == nil {
		t.Fatal("empty series must fail")
	}
}

func TestJain(t *testing.T) {
	// All-equal allocations are perfectly fair, whatever the level.
	for _, xs := range [][]float64{{1, 1, 1}, {0.25, 0.25}, {7}, {3, 3, 3, 3, 3}} {
		if got := Jain(xs); got != 1 {
			t.Fatalf("Jain(%v) = %v, want 1", xs, got)
		}
	}
	// One-hot: a single user hogging everything scores 1/n.
	for n := 1; n <= 6; n++ {
		xs := make([]float64, n)
		xs[0] = 1
		want := 1 / float64(n)
		if got := Jain(xs); math.Abs(got-want) > 1e-12 {
			t.Fatalf("one-hot n=%d: Jain = %v, want %v", n, got, want)
		}
	}
	// Degenerate inputs must not produce NaN: no samples and all-zero
	// samples (classes with zero traffic) both read as perfectly fair.
	for _, xs := range [][]float64{nil, {}, {0}, {0, 0, 0}} {
		got := Jain(xs)
		if math.IsNaN(got) || got != 1 {
			t.Fatalf("Jain(%v) = %v, want 1 (NaN-guard)", xs, got)
		}
	}
	// Known closed form: rates {1, 0.5} -> (1.5)^2 / (2 * 1.25) = 0.9.
	if got := Jain([]float64{1, 0.5}); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("Jain(1, 0.5) = %v, want 0.9", got)
	}
	// Scale invariance: J(c*x) == J(x).
	if a, b := Jain([]float64{1, 2, 3}), Jain([]float64{10, 20, 30}); math.Abs(a-b) > 1e-12 {
		t.Fatalf("Jain not scale-invariant: %v vs %v", a, b)
	}
}
