package mlp

import (
	"math"
	"math/rand"
	"testing"
)

func synth(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X[i] = []float64{a, b}
		y[i] = 2*a - b + 0.05*rng.NormFloat64()
	}
	return X, y
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	X, y := synth(2000, 1)
	m, err := Train(X, y, Params{Epochs: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(400, 2)
	if got := mse(m, Xt, yt); got > 0.1 {
		t.Fatalf("test MSE = %v, want < 0.1", got)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	X, y := synth(300, 3)
	m1, err := Train(X, y, Params{Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, Params{Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.25, -0.4}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("same seed must give identical models")
	}
}

func TestConstantTarget(t *testing.T) {
	X := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = 7
	}
	m, err := Train(X, y, Params{Epochs: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{50}); math.Abs(got-7) > 0.5 {
		t.Fatalf("constant-target prediction = %v, want ~7", got)
	}
}
