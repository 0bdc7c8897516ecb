package cox

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// synthSubjects draws exponential survival times whose hazard doubles per
// unit of x0; x1 is noise.
func synthSubjects(n int, seed int64) []Subject {
	rng := rand.New(rand.NewSource(seed))
	subs := make([]Subject, n)
	for i := range subs {
		x0 := rng.Float64()*2 - 1
		x1 := rng.Float64()*2 - 1
		hazard := math.Exp(math.Ln2 * x0) // beta0 = ln 2 on raw scale
		life := rng.ExpFloat64() / hazard * 10
		subs[i] = Subject{
			X:        []float64{x0, x1},
			Duration: time.Duration(life * float64(time.Hour)),
			Event:    true,
		}
	}
	return subs
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Fatal("empty input must fail")
	}
	subs := []Subject{{X: []float64{1}, Duration: time.Hour, Event: true},
		{X: []float64{1, 2}, Duration: time.Hour, Event: true}}
	if _, err := Fit(subs); err == nil {
		t.Fatal("ragged covariates must fail")
	}
}

func TestRecoversHazardDirection(t *testing.T) {
	m, err := Fit(synthSubjects(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Higher x0 -> higher hazard -> beta0 positive and dominant.
	if m.Beta[0] <= 0.2 {
		t.Fatalf("beta0 = %v, want clearly positive", m.Beta[0])
	}
	if math.Abs(m.Beta[1]) > math.Abs(m.Beta[0])/3 {
		t.Fatalf("noise coefficient too large: beta = %v", m.Beta)
	}
}

func TestRiskOrdering(t *testing.T) {
	m, err := Fit(synthSubjects(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Risk([]float64{1, 0}) <= m.Risk([]float64{-1, 0}) {
		t.Fatal("risk must increase with x0")
	}
}

func TestSurvivalDecreasing(t *testing.T) {
	m, err := Fit(synthSubjects(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 0}
	prev := 1.0
	for h := 0.0; h < 100; h += 5 {
		s := m.Survival(x, time.Duration(h*float64(time.Hour)))
		if s > prev+1e-9 {
			t.Fatalf("survival increased at %vh", h)
		}
		prev = s
	}
	if got := m.Survival(x, 0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("S(0) = %v, want 1", got)
	}
}

func TestExpRemainingOrdering(t *testing.T) {
	m, err := Fit(synthSubjects(1500, 4))
	if err != nil {
		t.Fatal(err)
	}
	// A high-risk subject must have shorter expected remaining life.
	hi := m.ExpRemaining([]float64{1, 0}, 0)
	lo := m.ExpRemaining([]float64{-1, 0}, 0)
	if hi >= lo {
		t.Fatalf("ExpRemaining: high risk %v >= low risk %v", hi, lo)
	}
	if hi <= 0 || lo <= 0 {
		t.Fatalf("expected remaining lifetimes must be positive: %v %v", hi, lo)
	}
}

func TestCensoringHandled(t *testing.T) {
	subs := synthSubjects(500, 5)
	// Censor the longest half.
	for i := range subs {
		if subs[i].Duration > 10*time.Hour {
			subs[i].Event = false
		}
	}
	m, err := Fit(subs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta[0] <= 0 {
		t.Fatalf("beta0 = %v, want positive even with censoring", m.Beta[0])
	}
}
