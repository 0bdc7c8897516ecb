package km

import (
	"math"
	"testing"
	"time"
)

func obs(hours []float64, event bool) []Observation {
	out := make([]Observation, len(hours))
	for i, h := range hours {
		out[i] = Observation{Duration: time.Duration(h * float64(time.Hour)), Event: event}
	}
	return out
}

func TestFitRejectsEmpty(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestSurvivalNoCensoring(t *testing.T) {
	// Four exits at 1,2,3,4h: S drops by 1/4 at each.
	c, err := Fit(obs([]float64{1, 2, 3, 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{time.Hour, 0.75},
		{2 * time.Hour, 0.5},
		{3 * time.Hour, 0.25},
		{4 * time.Hour, 0},
		{10 * time.Hour, 0},
	}
	for _, cse := range cases {
		if got := c.Survival(cse.at); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("S(%v) = %v, want %v", cse.at, got, cse.want)
		}
	}
}

func TestSurvivalWithCensoring(t *testing.T) {
	// Exit at 1h; censor at 2h; exit at 3h.
	o := []Observation{
		{Duration: time.Hour, Event: true},
		{Duration: 2 * time.Hour, Event: false},
		{Duration: 3 * time.Hour, Event: true},
	}
	c, err := Fit(o)
	if err != nil {
		t.Fatal(err)
	}
	// At 1h: 3 at risk, 1 death -> S = 2/3.
	if got := c.Survival(time.Hour); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("S(1h) = %v, want 2/3", got)
	}
	// At 3h: 1 at risk, 1 death -> S = 2/3 * 0 = 0.
	if got := c.Survival(3 * time.Hour); got != 0 {
		t.Fatalf("S(3h) = %v, want 0", got)
	}
	// The censored subject adds no drop at 2h.
	if got := c.Survival(2 * time.Hour); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("S(2h) = %v, want 2/3", got)
	}
}

func TestSurvivalMonotone(t *testing.T) {
	c, err := Fit(obs([]float64{0.5, 1, 1, 2, 5, 9, 24, 100}, true))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for h := 0.0; h < 120; h += 0.5 {
		s := c.Survival(time.Duration(h * float64(time.Hour)))
		if s > prev+1e-12 {
			t.Fatalf("survival increased at %vh: %v > %v", h, s, prev)
		}
		prev = s
	}
}

func TestExpRemaining(t *testing.T) {
	// Uniform exits at 1..4h. E(T) should be 2.5h at u=0.
	c, err := Fit(obs([]float64{1, 2, 3, 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	got := c.ExpRemaining(0)
	want := 2*time.Hour + 30*time.Minute
	if math.Abs(float64(got-want)) > float64(time.Minute) {
		t.Fatalf("ExpRemaining(0) = %v, want ~%v", got, want)
	}
	// Conditional: after 2h, remaining is mean of {1,2} = 1.5h.
	got = c.ExpRemaining(2 * time.Hour)
	want = 90 * time.Minute
	if math.Abs(float64(got-want)) > float64(time.Minute) {
		t.Fatalf("ExpRemaining(2h) = %v, want ~%v", got, want)
	}
	// Beyond support: zero.
	if got := c.ExpRemaining(10 * time.Hour); got != 0 {
		t.Fatalf("ExpRemaining(10h) = %v, want 0", got)
	}
}

func TestStratified(t *testing.T) {
	short := obs([]float64{0.3, 0.4, 0.5, 0.6, 0.5, 0.4, 0.3, 0.5, 0.6, 0.4, 0.5, 0.3}, true)
	long := obs([]float64{90, 100, 110, 120, 100, 95, 105, 115, 100, 110, 90, 105}, true)
	var all []Observation
	var strata []string
	for _, o := range short {
		all = append(all, o)
		strata = append(strata, "short")
	}
	for _, o := range long {
		all = append(all, o)
		strata = append(strata, "long")
	}
	s, err := FitStratified(all, strata, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Strata() != 2 {
		t.Fatalf("Strata = %d, want 2", s.Strata())
	}
	se := s.ExpRemaining("short", 0)
	le := s.ExpRemaining("long", 0)
	if se >= time.Hour || le <= 24*time.Hour {
		t.Fatalf("stratified expectations wrong: short=%v long=%v", se, le)
	}
	// Unknown stratum falls back to global.
	ge := s.ExpRemaining("unknown", 0)
	if ge <= se || ge >= le {
		t.Fatalf("global fallback %v not between strata (%v, %v)", ge, se, le)
	}
}

func TestFitStratifiedRejectsMismatch(t *testing.T) {
	if _, err := FitStratified(obs([]float64{1}, true), []string{"a", "b"}, 1); err == nil {
		t.Fatal("mismatched lengths must be rejected")
	}
}

func TestSmallStratumFallsBack(t *testing.T) {
	all := obs([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50}, true)
	strata := []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "rare"}
	s, err := FitStratified(all, strata, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Strata() != 1 {
		t.Fatalf("Strata = %d, want 1 (rare collapsed)", s.Strata())
	}
	if c := s.Curve("rare"); c != s.global {
		t.Fatal("rare stratum must use global curve")
	}
}
