package dist

import (
	"slices"
	"testing"
	"time"
)

const h = time.Hour

func empirical(t *testing.T, ds ...time.Duration) *Empirical {
	t.Helper()
	e, err := FromDurations(ds)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFromDurationsRejectsEmpty(t *testing.T) {
	if _, err := FromDurations(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestFromDurationsLeavesInputAlone(t *testing.T) {
	in := []time.Duration{4 * h, h, 2 * h}
	empirical(t, in...)
	if !slices.Equal(in, []time.Duration{4 * h, h, 2 * h}) {
		t.Fatalf("input reordered to %v", in)
	}
}

func TestCDF(t *testing.T) {
	e := empirical(t, 2*h, 4*h, h, 2*h)
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{h - 1, 0},
		{h, 0.25},
		{90 * time.Minute, 0.25},
		{2 * h, 0.75}, // both tied samples count
		{4*h - 1, 0.75},
		{4 * h, 1},
		{100 * h, 1},
	} {
		if got := e.CDF(c.at); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestCondExpRemaining checks E(L - u | L > u) on the samples {1h, 2h, 2h,
// 4h} by hand: the mean of the samples above u, less u.
func TestCondExpRemaining(t *testing.T) {
	e := empirical(t, 2*h, 4*h, h, 2*h)
	for _, c := range []struct {
		u, want time.Duration
	}{
		{0, 2*h + 15*time.Minute},            // (1+2+2+4)/4 = 2.25h
		{h, h + 40*time.Minute},              // (2+2+4)/3 - 1 = 5/3 h: the sample at 1h has exited
		{90 * time.Minute, 70 * time.Minute}, // (2+2+4)/3 - 1.5
		{2 * h, 2 * h},                       // tie: both 2h samples have exited, 4 - 2
		{3 * h, h},                           // 4 - 3
		{4 * h, 24 * time.Minute},            // past the support: u/10
		{10 * h, h},                          // u/10
		{4*h + 5*time.Minute, 24*time.Minute + 30*time.Second}, // u/10
	} {
		if got := e.CondExpRemaining(c.u); got != c.want {
			t.Errorf("CondExpRemaining(%v) = %v, want %v", c.u, got, c.want)
		}
	}
	// Past the support the answer is floored at one minute.
	short := empirical(t, 30*time.Second)
	for _, u := range []time.Duration{30 * time.Second, time.Minute, 10 * time.Minute} {
		if got := short.CondExpRemaining(u); got != time.Minute {
			t.Errorf("CondExpRemaining(%v) past a 30s support = %v, want 1m", u, got)
		}
	}
	if got := short.CondExpRemaining(11 * time.Minute); got != 66*time.Second {
		t.Errorf("CondExpRemaining(11m) past a 30s support = %v, want 66s", got)
	}
}

func TestWeightedCDF(t *testing.T) {
	c, err := NewWeightedCDF([]time.Duration{3 * h, h, 2 * h}, []float64{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cse := range []struct {
		at   time.Duration
		want float64
	}{{0, 0}, {h, 0.25}, {2 * h, 0.5}, {3 * h, 1}} {
		if got := c.FractionAtOrBelow(cse.at); got != cse.want {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", cse.at, got, cse.want)
		}
	}
}

func TestNewWeightedCDFRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   []time.Duration
		ws   []float64
	}{
		{"no samples", nil, nil},
		{"length mismatch", []time.Duration{h, 2 * h}, []float64{1}},
		{"negative weight", []time.Duration{h, 2 * h}, []float64{1, -1}},
		{"zero total weight", []time.Duration{h, 2 * h}, []float64{0, 0}},
	} {
		if _, err := NewWeightedCDF(c.ds, c.ws); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
