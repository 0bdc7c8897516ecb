package cell

import (
	"math"
	"testing"

	"lava/internal/sim"
	"lava/internal/slo"
)

// sloResult fabricates a cell result carrying an SLO summary, with distinct
// packing aggregates so the rollup's host-weighted averages are visible in
// the recomputed fitness.
func sloResult(packing float64, classes map[string]*slo.Counts) *sim.Result {
	return &sim.Result{Aggregates: sim.Aggregates{
		AvgPackingDensity: packing,
		AvgEmptyToFree:    1,
		SLO:               slo.Summarize(classes, packing, 1, true),
	}}
}

func TestRollUpSLOAdditivity(t *testing.T) {
	a := sloResult(0.8, map[string]*slo.Counts{
		slo.ClassLatency:  {Admitted: 10, Placed: 9, Failed: 1, Exited: 4},
		slo.ClassStandard: {Admitted: 20, Placed: 20},
	})
	b := sloResult(0.6, map[string]*slo.Counts{
		slo.ClassLatency:    {Admitted: 5, Rejected: 5, Placed: 5},
		slo.ClassBestEffort: {Admitted: 8, Rejected: 2, Placed: 8, Exited: 8},
	})
	roll, err := RollUp("round-robin", []int{3, 1}, []*sim.Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if roll.SLO == nil {
		t.Fatal("rollup dropped the SLO summary")
	}
	// Counts are field-wise sums across cells, per class.
	want := map[string]slo.Counts{
		slo.ClassLatency:    {Admitted: 15, Rejected: 5, Placed: 14, Failed: 1, Exited: 4},
		slo.ClassStandard:   {Admitted: 20, Placed: 20},
		slo.ClassBestEffort: {Admitted: 8, Rejected: 2, Placed: 8, Exited: 8},
	}
	if len(roll.SLO.Classes) != len(want) {
		t.Fatalf("rolled classes = %v", roll.SLO.Classes)
	}
	for cls, w := range want {
		if got := roll.SLO.Classes[cls]; got == nil || *got != w {
			t.Fatalf("class %s = %+v, want %+v", cls, got, w)
		}
	}
	// Fairness/fitness are recomputed from the summed counts and the
	// host-weighted fleet aggregates — not averaged from per-cell indices.
	wantFair := slo.Fairness(roll.SLO.Classes)
	if roll.SLO.Fairness != wantFair {
		t.Fatalf("fairness = %v, want recomputed %v", roll.SLO.Fairness, wantFair)
	}
	wantFit := slo.FitnessScore(roll.AvgPackingDensity, roll.AvgEmptyToFree, wantFair)
	if math.Abs(roll.SLO.Fitness-wantFit) > 1e-12 {
		t.Fatalf("fitness = %v, want %v (from weighted packing %v)", roll.SLO.Fitness, wantFit, roll.AvgPackingDensity)
	}

	// Associativity: rolling {a} and {b} separately, then merging the two
	// partial summaries, matches the one-shot rollup — cross-fleet reports
	// can be aggregated hierarchically without drift.
	ra, err := RollUp("round-robin", []int{3}, []*sim.Result{a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RollUp("round-robin", []int{1}, []*sim.Result{b})
	if err != nil {
		t.Fatal(err)
	}
	merged := slo.MergeCounts(nil, ra.SLO.Classes)
	merged = slo.MergeCounts(merged, rb.SLO.Classes)
	for cls, w := range want {
		if got := merged[cls]; got == nil || *got != w {
			t.Fatalf("hierarchical merge class %s = %+v, want %+v", cls, got, w)
		}
	}

	// Cells without the SLO layer leave the rollup's summary nil.
	plain, err := RollUp("round-robin", []int{1, 1}, []*sim.Result{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SLO != nil {
		t.Fatal("SLO summary must stay nil when no cell tracked classes")
	}
}
