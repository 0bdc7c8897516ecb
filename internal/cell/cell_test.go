package cell

import (
	"math/rand"
	"reflect"
	"testing"

	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func testTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "cell-test", Zone: "z1", Hosts: 32, TargetUtil: 0.6,
		Duration: 3 * simtime.Day, Prefill: 6 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSplitHosts(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{8, 4, []int{2, 2, 2, 2}},
		{10, 4, []int{3, 3, 2, 2}},
		{5, 3, []int{2, 2, 1}},
		{4, 1, []int{4}},
	}
	for _, c := range cases {
		got := SplitHosts(c.total, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitHosts(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
		}
		sum := 0
		for _, h := range got {
			sum += h
		}
		if sum != c.total {
			t.Errorf("SplitHosts(%d, %d) sums to %d", c.total, c.n, sum)
		}
	}
}

func TestNewLedgerRejectsBadConfig(t *testing.T) {
	if _, err := NewLedger("round-robin", nil); err == nil {
		t.Error("no cells must fail")
	}
	if _, err := NewLedger("nope", []int{4}); err == nil {
		t.Error("unknown router must fail")
	}
	for _, kind := range RouterKinds() {
		if _, err := NewLedger(kind, []int{4, 4}); err != nil {
			t.Errorf("NewLedger(%s): %v", kind, err)
		}
	}
}

func TestShardPartitionsRecords(t *testing.T) {
	tr := testTrace(t, 1)
	for _, kind := range RouterKinds() {
		t.Run(kind, func(t *testing.T) {
			plan, err := PlanCells(tr, kind, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Cells) != 4 {
				t.Fatalf("cells = %d", len(plan.Cells))
			}
			total, hostSum := 0, 0
			for i, c := range plan.Cells {
				total += len(c.Records)
				hostSum += c.Hosts
				if c.WarmUp != tr.WarmUp || c.Horizon != tr.Horizon {
					t.Errorf("cell %d lost warm-up/horizon", i)
				}
				if err := c.Validate(); err != nil {
					t.Errorf("cell %d invalid: %v", i, err)
				}
			}
			if total != len(tr.Records) {
				t.Errorf("sharded %d of %d records", total, len(tr.Records))
			}
			if hostSum != tr.Hosts {
				t.Errorf("cells hold %d of %d hosts", hostSum, tr.Hosts)
			}
		})
	}
}

func TestShardRejectsTooManyCells(t *testing.T) {
	tr := testTrace(t, 2)
	if _, err := PlanCells(tr, "round-robin", 40); err == nil {
		t.Fatal("sharding 32 hosts into 40 cells must fail")
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	tr := testTrace(t, 3)
	plan, err := PlanCells(tr, "round-robin", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan.Cells {
		if diff := len(c.Records) - len(tr.Records)/4; diff < -1 || diff > 1 {
			t.Errorf("cell %d holds %d records, want ~%d", i, len(c.Records), len(tr.Records)/4)
		}
	}
}

// TestFeatureHashStable is the router-determinism guarantee: the
// feature-hashed assignment is a pure function of the record, so sharding
// the same trace twice — or routing the records in any other order, as a
// different worker count would never cause but a refactor might — yields
// identical cells.
func TestFeatureHashStable(t *testing.T) {
	tr := testTrace(t, 4)
	shard := func() *Plan {
		p, err := PlanCells(tr, "feature-hash", 4)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := shard(), shard()
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Records, b.Cells[i].Records) {
			t.Fatalf("cell %d differs between identical shards", i)
		}
	}
	// Order independence: routing a shuffled record stream through the
	// ledger assigns every record to the same cell.
	l, _ := NewLedger("feature-hash", SplitHosts(tr.Hosts, 4))
	want := make(map[int64]int, len(tr.Records))
	for i := range tr.Records {
		want[int64(tr.Records[i].ID)] = l.Route(&tr.Records[i])
	}
	perm := rand.New(rand.NewSource(9)).Perm(len(tr.Records))
	for _, i := range perm {
		if got := l.Route(&tr.Records[i]); got != want[int64(tr.Records[i].ID)] {
			t.Fatalf("record %d rerouted from cell %d to %d under reordering",
				tr.Records[i].ID, want[int64(tr.Records[i].ID)], got)
		}
	}
	// Affinity: identical feature tuples land in the same cell by
	// construction; at least two distinct cells must be populated.
	used := map[int]bool{}
	for _, c := range want {
		used[c] = true
	}
	if len(used) < 2 {
		t.Fatalf("feature hash used %d cells", len(used))
	}
}

func TestLeastUtilizedBalancesLoad(t *testing.T) {
	tr := testTrace(t, 5)
	plan, err := PlanCells(tr, "least-utilized", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Committed core-hours per cell should be close to even.
	loads := make([]float64, 4)
	for i, c := range plan.Cells {
		for _, rec := range c.Records {
			loads[i] += float64(rec.Shape.CPUMilli) * rec.Lifetime.Hours()
		}
	}
	min, max := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	// Admission-time balancing cannot be perfect (a long-lived VM skews a
	// cell for days after its arrival), but the spread must stay bounded.
	if min <= 0 || (max-min)/max > 0.25 {
		t.Fatalf("least-utilized imbalance: loads %v", loads)
	}
	// Determinism: sharding again routes identically.
	plan2, err := PlanCells(tr, "least-utilized", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Cells {
		if !reflect.DeepEqual(plan.Cells[i].Records, plan2.Cells[i].Records) {
			t.Fatalf("cell %d differs between identical least-utilized shards", i)
		}
	}
}

func TestRollUp(t *testing.T) {
	mk := func(empty, util float64, placed, failed, killed int) *sim.Result {
		return &sim.Result{Aggregates: sim.Aggregates{
			AvgEmptyHostFrac: empty, AvgCPUUtil: util,
			Placements: placed, Failed: failed, Killed: killed,
			ModelCalls: 10,
		}}
	}
	hosts := []int{10, 30}
	r, err := RollUp("feature-hash", hosts, []*sim.Result{
		mk(0.4, 0.5, 100, 1, 2),
		mk(0.2, 0.7, 300, 3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Host-weighted: (10*0.4 + 30*0.2) / 40 = 0.25.
	if diff := r.AvgEmptyHostFrac - 0.25; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("AvgEmptyHostFrac = %v, want 0.25", r.AvgEmptyHostFrac)
	}
	if r.Placements != 400 || r.Failed != 4 || r.Killed != 2 || r.ModelCalls != 20 {
		t.Errorf("counters = %+v", r)
	}
	if diff := r.UtilSpread - 0.2; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("UtilSpread = %v, want 0.2", r.UtilSpread)
	}
	if _, err := RollUp("x", []int{1}, []*sim.Result{nil}); err == nil {
		t.Error("nil result must fail")
	}
	// Zero total hosts would divide every average into NaN; it must be an
	// error, not a NaN-laden rollup.
	if _, err := RollUp("x", []int{0, 0}, []*sim.Result{
		mk(0.4, 0.5, 1, 0, 0),
		mk(0.2, 0.7, 2, 0, 0),
	}); err == nil {
		t.Error("zero total hosts must fail")
	}
	if _, err := RollUp("x", []int{1, 2}, []*sim.Result{mk(0, 0, 0, 0, 0)}); err == nil {
		t.Error("mismatched lengths must fail")
	}
}

// TestFederationEndToEnd shards a trace 4 ways and simulates every cell,
// checking conservation across the federation.
func TestFederationEndToEnd(t *testing.T) {
	tr := testTrace(t, 6)
	plan, err := PlanCells(tr, "feature-hash", 4)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*sim.Result, len(plan.Cells))
	for i, c := range plan.Cells {
		res, err := sim.Run(sim.Config{Trace: c, Policy: scheduler.NewWasteMin(), CheckInvariants: true})
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		results[i] = res
	}
	roll, err := RollUp(plan.Router, plan.Hosts, results)
	if err != nil {
		t.Fatal(err)
	}
	if roll.Placements+roll.Failed != len(tr.Records) {
		t.Fatalf("federation placed %d + failed %d != %d records", roll.Placements, roll.Failed, len(tr.Records))
	}
	if roll.AvgCPUUtil <= 0 || roll.AvgCPUUtil >= 1 {
		t.Fatalf("rollup cpu util = %v", roll.AvgCPUUtil)
	}
}
