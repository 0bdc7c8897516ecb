package workload

import (
	"bytes"
	"testing"
	"time"

	"lava/internal/dist"
	"lava/internal/simtime"
	"lava/internal/trace"
)

func genSmall(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := Generate(PoolSpec{
		Name: "test", Zone: "z1", Hosts: 24, TargetUtil: 0.65,
		Duration: 4 * simtime.Day, Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := genSmall(t, 42), genSmall(t, 42)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("same seed produced %d vs %d records", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between identical seeds", i)
		}
	}
	c := genSmall(t, 43)
	if len(a.Records) == len(c.Records) && len(a.Records) > 0 && a.Records[0] == c.Records[0] {
		t.Fatal("different seeds produced identical first record")
	}
}

func TestGenerateValidates(t *testing.T) {
	tr := genSmall(t, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 100 {
		t.Fatalf("suspiciously few records: %d", len(tr.Records))
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []PoolSpec{
		{Name: "no-hosts", TargetUtil: 0.5, Duration: time.Hour},
		{Name: "no-duration", Hosts: 10, TargetUtil: 0.5},
		{Name: "util-0", Hosts: 10, TargetUtil: 0, Duration: time.Hour},
		{Name: "util-1", Hosts: 10, TargetUtil: 1, Duration: time.Hour},
	}
	for _, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %q must be rejected", spec.Name)
		}
	}
}

// TestFig1Structure checks the generational-hypothesis shape of Fig. 1:
// most VMs are short-lived, but most core-hours belong to long-lived VMs.
func TestFig1Structure(t *testing.T) {
	tr, err := Generate(PoolSpec{
		Name: "fig1", Zone: "z1", Hosts: 48, TargetUtil: 0.65,
		Duration: 14 * simtime.Day, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	lifetimes := make([]time.Duration, len(tr.Records))
	weights := make([]float64, len(tr.Records))
	for i, r := range tr.Records {
		lifetimes[i] = r.Lifetime
		weights[i] = float64(r.Shape.CPUMilli) / 1000 * r.Lifetime.Hours()
	}
	e, err := dist.FromDurations(lifetimes)
	if err != nil {
		t.Fatal(err)
	}
	shortFrac := e.CDF(time.Hour)
	if shortFrac < 0.80 || shortFrac > 0.95 {
		t.Errorf("fraction of VMs under 1h = %.3f, want ~0.88 (Fig. 1)", shortFrac)
	}
	w, err := dist.NewWeightedCDF(lifetimes, weights)
	if err != nil {
		t.Fatal(err)
	}
	resourceShort := w.FractionAtOrBelow(time.Hour)
	if resourceShort > 0.10 {
		t.Errorf("core-hours from VMs under 1h = %.3f, want <= 0.10 (Fig. 1: 98%% of resources from >=1h VMs)", resourceShort)
	}
}

// TestUtilizationCalibration verifies the arrival-rate calibration: running
// core demand within the steady-state window (after the prefill) must land
// near the target utilization.
func TestUtilizationCalibration(t *testing.T) {
	spec := PoolSpec{
		Name: "cal", Zone: "z1", Hosts: 48, TargetUtil: 0.6,
		Duration: 7 * simtime.Day, Prefill: 14 * simtime.Day, Seed: 11,
	}
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Integrate the demand that overlaps the steady window, per dimension.
	from, to := spec.Prefill, spec.Prefill+spec.Duration
	var coreHours, memMBHours float64
	for _, r := range tr.Records {
		a, b := r.Arrival, r.Exit()
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			coreHours += float64(r.Shape.CPUMilli) / 1000 * (b - a).Hours()
			memMBHours += float64(r.Shape.MemoryMB) * (b - a).Hours()
		}
	}
	shape := DefaultHostShape
	cpuUtil := coreHours / (float64(shape.CPUMilli) / 1000 * float64(spec.Hosts) * spec.Duration.Hours())
	memUtil := memMBHours / (float64(shape.MemoryMB) * float64(spec.Hosts) * spec.Duration.Hours())
	// The calibration targets the binding dimension.
	binding := cpuUtil
	if memUtil > binding {
		binding = memUtil
	}
	if binding < 0.45 || binding > 0.75 {
		t.Errorf("binding-dimension demand = %.3f (cpu %.3f, mem %.3f), want near %.2f",
			binding, cpuUtil, memUtil, spec.TargetUtil)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := genSmall(t, 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PoolName != tr.PoolName || got.Hosts != tr.Hosts || len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d mismatch after round trip", i)
		}
	}
}

func TestEventsOrdering(t *testing.T) {
	tr := genSmall(t, 5)
	evs := tr.Events()
	if len(evs) != 2*len(tr.Records) {
		t.Fatalf("event count = %d, want %d", len(evs), 2*len(tr.Records))
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Time > b.Time {
			t.Fatalf("events out of order at %d: %v > %v", i, a.Time, b.Time)
		}
		if a.Time == b.Time && a.Kind > b.Kind {
			t.Fatalf("exit-before-create violated at %d", i)
		}
	}
}

func TestLiveAt(t *testing.T) {
	tr := genSmall(t, 9)
	ts := 2 * simtime.Day
	live := tr.LiveAt(ts)
	for _, r := range live {
		if r.Arrival > ts || r.Exit() <= ts {
			t.Fatalf("record %d not live at %v: arrival=%v exit=%v", r.ID, ts, r.Arrival, r.Exit())
		}
	}
	if len(live) == 0 {
		t.Fatal("no live VMs at mid-trace; generator too sparse")
	}
}

func TestE2MixShapesSmaller(t *testing.T) {
	for _, ts := range E2Mix() {
		for _, c := range ts.Cores {
			if c > 16 {
				t.Errorf("E2 type %s has %d cores, want <= 16", ts.Name, c)
			}
		}
		if ts.SSDProb != 0 {
			t.Errorf("E2 type %s has SSD", ts.Name)
		}
	}
}

// TestBimodalTypesPresent ensures the default mix retains irreducible
// uncertainty (at least one multi-mode lifetime law), which the
// reprediction experiments rely on.
func TestBimodalTypesPresent(t *testing.T) {
	n := 0
	for _, ts := range DefaultMix() {
		if len(ts.Modes) > 1 {
			n++
		}
	}
	if n < 2 {
		t.Fatalf("default mix has %d multi-modal types, want >= 2", n)
	}
}
