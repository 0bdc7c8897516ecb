package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTemporalCostPaperExample(t *testing.T) {
	// §4.2: "if ∆T = 70m, the temporal cost is 2".
	if got := TemporalCost(70 * time.Minute); got != 2 {
		t.Fatalf("TemporalCost(70m) = %d, want 2", got)
	}
}

func TestTemporalCostBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Hour, 0},
		{time.Minute, 0},
		{29 * time.Minute, 0},
		{30 * time.Minute, 1},
		{59 * time.Minute, 1},
		{60 * time.Minute, 2},
		{90 * time.Minute, 3},
		{2 * time.Hour, 4},
		{3 * time.Hour, 5},
		{4 * time.Hour, 6},
		{5 * time.Hour, 6},
		{6 * time.Hour, 7},
		{12 * time.Hour, 8},
		{24 * time.Hour, 9},
		{167 * time.Hour, 9},
		{168 * time.Hour, 10},
		{10000 * time.Hour, 10},
	}
	for _, c := range cases {
		if got := TemporalCost(c.d); got != c.want {
			t.Errorf("TemporalCost(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestTemporalCostMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		da := time.Duration(a) * time.Second
		db := time.Duration(b) * time.Second
		if da > db {
			da, db = db, da
		}
		return TemporalCost(da) <= TemporalCost(db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want LifetimeClass
	}{
		{0, LC1},
		{30 * time.Minute, LC1},
		{59*time.Minute + 59*time.Second, LC1},
		{time.Hour, LC2},
		{9 * time.Hour, LC2},
		{10 * time.Hour, LC3},
		{99 * time.Hour, LC3},
		{100 * time.Hour, LC4},
		{999 * time.Hour, LC4},
		{1000 * time.Hour, LC4},
		{100000 * time.Hour, LC4},
		// One nanosecond below each edge, and a negative lifetime.
		{time.Hour - 1, LC1},
		{10*time.Hour - 1, LC2},
		{100*time.Hour - 1, LC3},
		{-time.Hour, LC1},
	}
	for _, c := range cases {
		if got := ClassOf(c.d); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestClassIncDecClamp(t *testing.T) {
	if LC1.Dec() != LC1 {
		t.Errorf("LC1.Dec() = %v, want LC1", LC1.Dec())
	}
	if LC4.Inc() != LC4 {
		t.Errorf("LC4.Inc() = %v, want LC4", LC4.Inc())
	}
	if LC2.Dec() != LC1 || LC2.Inc() != LC3 {
		t.Errorf("LC2 neighbours wrong: dec=%v inc=%v", LC2.Dec(), LC2.Inc())
	}
}

func TestClassIncDecInverse(t *testing.T) {
	f := func(raw uint8) bool {
		c := LifetimeClass(1 + int(raw)%NumLifetimeClasses)
		if c > LC1 && c.Dec().Inc() != c {
			return false
		}
		if c < LC4 && c.Inc().Dec() != c {
			return false
		}
		return c.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineIs110Percent(t *testing.T) {
	for c := LC1; c <= LC4; c++ {
		want := time.Duration(1.1 * float64(c.UpperBound()))
		if got := c.Deadline(); got != want {
			t.Errorf("%v.Deadline() = %v, want %v", c, got, want)
		}
		if c.Deadline() <= c.UpperBound() {
			t.Errorf("%v deadline %v not beyond upper bound %v", c, c.Deadline(), c.UpperBound())
		}
	}
}

func TestUpperBoundsAreDecades(t *testing.T) {
	want := []time.Duration{time.Hour, 10 * time.Hour, 100 * time.Hour, 1000 * time.Hour}
	for i, c := range []LifetimeClass{LC1, LC2, LC3, LC4} {
		if c.UpperBound() != want[i] {
			t.Errorf("%v.UpperBound() = %v, want %v", c, c.UpperBound(), want[i])
		}
	}
}

func TestClassOfMatchesUpperBound(t *testing.T) {
	// Every lifetime strictly below a class's upper bound and at/above the
	// previous bound must map into that class.
	f := func(h uint16) bool {
		d := time.Duration(h) * time.Minute
		c := ClassOf(d)
		if !c.Valid() {
			return false
		}
		if d >= c.UpperBound() && c != LC4 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog10Hours(t *testing.T) {
	if got := Log10Hours(time.Hour); math.Abs(got) > 1e-12 {
		t.Errorf("Log10Hours(1h) = %v, want 0", got)
	}
	if got := Log10Hours(10 * time.Hour); math.Abs(got-1) > 1e-12 {
		t.Errorf("Log10Hours(10h) = %v, want 1", got)
	}
	// Clamp: zero duration maps to log10 of one second.
	want := math.Log10(1.0 / 3600.0)
	if got := Log10Hours(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("Log10Hours(0) = %v, want %v", got, want)
	}
	if got := Log10Hours(-time.Hour); math.Abs(got-want) > 1e-9 {
		t.Errorf("Log10Hours(-1h) = %v, want %v", got, want)
	}
}

func TestHoursRoundTrip(t *testing.T) {
	f := func(h uint16) bool {
		d := FromHours(float64(h))
		return math.Abs(Hours(d)-float64(h)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	if LC3.String() != "LC3" {
		t.Errorf("LC3.String() = %q", LC3.String())
	}
	if LifetimeClass(9).String() != "LC(9)" {
		t.Errorf("invalid class String() = %q", LifetimeClass(9).String())
	}
}
