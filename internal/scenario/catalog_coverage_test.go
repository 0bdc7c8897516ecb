package scenario

import (
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/workload"
)

// coverageFingerprint is the metric tuple a scenario must move to count as
// "doing something": between them these observe the trace shape (placements,
// failures), the injector stream (killed, exits, host withdrawals), the
// pool state (CPU util, empty-host fraction) and the model path (model
// calls). Capacity scenarios that hit only empty hosts are invisible to the
// result aggregates, so host unavailability is sampled directly.
type coverageFingerprint struct {
	Placements    int
	Exits         int
	Failed        int
	Killed        int
	AvgCPUUtil    float64
	AvgEmptyFrac  float64
	ModelCalls    int64
	PredName      string
	ComposedEnd   time.Duration
	ComposedCount int
	MaxWithdrawn  int // peak simultaneously-unavailable hosts over the run
}

// availabilityProbe is a read-only injector appended after the scenario's
// own injectors: each tick it records the peak number of unavailable hosts,
// making capacity events observable even when they touch only empty hosts.
type availabilityProbe struct{ max int }

func (p *availabilityProbe) Inject(ctl *sim.Control, _ time.Duration) {
	pool := ctl.Pool()
	n := 0
	for i := 0; i < pool.NumHosts(); i++ {
		if pool.Host(cluster.HostID(i)).Unavailable() {
			n++
		}
	}
	if n > p.max {
		p.max = n
	}
}

// TestCatalogEveryScenarioHasMeasurableEffect runs the whole catalog at a
// small study scale (a tenth of the usual pool) against the steady control
// arm. Every non-steady entry must move at least one fingerprint metric: a
// catalog entry that validates but does nothing at small scale would make
// the elasticity/parity suites silently vacuous.
func TestCatalogEveryScenarioHasMeasurableEffect(t *testing.T) {
	// A hot pool: at low utilization a packing policy leaves the high-ID
	// hosts empty, and capacity events (crunch, failures) that hit empty
	// hosts are legitimately invisible. The coverage contract is about a
	// working pool, so run the control arm near capacity.
	base, err := workload.Generate(workload.PoolSpec{
		Name: "catalog-cover", Zone: "z1", Hosts: 16, TargetUtil: 0.9,
		Duration: 2 * simtime.Day, Prefill: 4 * simtime.Day,
		Seed: 11, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, name string) coverageFingerprint {
		t.Helper()
		spec, err := ByName(name, base, 17)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := spec.ComposeTrace(base)
		if err != nil {
			t.Fatal(err)
		}
		// The LAVA policy consults the predictor on the hot path, so
		// model-level events (model-swap) are observable through decisions
		// and ModelCalls even when the trace itself is untouched.
		pred := spec.WrapModel(model.Oracle{})
		probe := &availabilityProbe{}
		res, err := sim.Run(sim.Config{
			Trace:           tr,
			Policy:          scheduler.NewLAVA(pred, 30*time.Minute),
			Injectors:       append(spec.Injectors(0), probe),
			CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return coverageFingerprint{
			MaxWithdrawn:  probe.max,
			Placements:    res.Placements,
			Exits:         res.Exits,
			Failed:        res.Failed,
			Killed:        res.Killed,
			AvgCPUUtil:    res.AvgCPUUtil,
			AvgEmptyFrac:  res.AvgEmptyHostFrac,
			ModelCalls:    res.ModelCalls,
			PredName:      pred.Name(),
			ComposedEnd:   tr.End(),
			ComposedCount: len(tr.Records),
		}
	}

	steady := run(t, "steady")
	if steady.ComposedCount != len(base.Records) {
		t.Fatalf("steady arm changed the trace: %d records, want %d", steady.ComposedCount, len(base.Records))
	}
	for _, name := range Names() {
		if name == "steady" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			got := run(t, name)
			if got.ComposedEnd != steady.ComposedEnd {
				// Composition must never move the measured window, or
				// online/offline geometry would diverge per scenario.
				t.Fatalf("scenario moved trace end: %v, steady %v", got.ComposedEnd, steady.ComposedEnd)
			}
			if got == steady {
				t.Fatalf("scenario %q had no measurable effect at small scale: fingerprint %+v identical to steady", name, got)
			}
		})
	}
}
