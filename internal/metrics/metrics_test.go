package metrics

import (
	"math"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
)

func TestSnapshot(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(10, 40960, 0))
	vm := &cluster.VM{ID: 1, Shape: resources.Cores(5, 20480, 0)}
	if err := p.Place(vm, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	s := Snapshot(p, 3*time.Hour)
	if s.Time != 3*time.Hour {
		t.Fatalf("time = %v", s.Time)
	}
	if s.EmptyHostFrac != 0.75 || s.NumEmptyHosts != 3 || s.NumVMs != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if math.Abs(s.CPUUtil-0.125) > 1e-12 {
		t.Fatalf("cpu util = %v", s.CPUUtil)
	}
}

func TestSeriesOrdering(t *testing.T) {
	var s Series
	if err := s.Add(Sample{Time: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Sample{Time: 2 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Sample{Time: time.Minute}); err == nil {
		t.Fatal("out-of-order sample must be rejected")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestAfter(t *testing.T) {
	var s Series
	for h := 0; h < 10; h++ {
		if err := s.Add(Sample{Time: time.Duration(h) * time.Hour, EmptyHostFrac: float64(h)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.After(5 * time.Hour)
	if got.Len() != 5 {
		t.Fatalf("After(5h) kept %d samples, want 5", got.Len())
	}
	if got.Samples[0].EmptyHostFrac != 5 {
		t.Fatalf("first kept sample = %v", got.Samples[0])
	}
}

func TestMeanAndValues(t *testing.T) {
	var s Series
	for i, v := range []float64{0.1, 0.2, 0.3} {
		if err := s.Add(Sample{Time: time.Duration(i) * time.Hour, EmptyHostFrac: v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Mean(EmptyHostFrac); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	vals := s.Values(EmptyHostFrac)
	if len(vals) != 3 || vals[2] != 0.3 {
		t.Fatalf("values = %v", vals)
	}
	times := s.Times()
	if times[1] != 1 {
		t.Fatalf("times = %v", times)
	}
	var empty Series
	if empty.Mean(EmptyHostFrac) != 0 {
		t.Fatal("empty series mean must be 0")
	}
}

func TestFieldSelectors(t *testing.T) {
	s := Sample{EmptyHostFrac: 1, EmptyToFree: 2, PackingDensity: 3, CPUUtil: 4, MemUtil: 5}
	if EmptyHostFrac(s) != 1 || EmptyToFree(s) != 2 || PackingDensity(s) != 3 || CPUUtil(s) != 4 {
		t.Fatal("field selectors wrong")
	}
}
