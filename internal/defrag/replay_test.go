package defrag

import (
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

func hoursD(h float64) time.Duration { return time.Duration(h * float64(time.Hour)) }

func TestReplayPlanBasic(t *testing.T) {
	plan := []PlannedBatch{{
		Trigger: hoursD(1),
		Host:    0,
		VMs: []PlannedVM{
			{ID: 1, Exit: hoursD(100), Remaining: hoursD(99)},
			{ID: 2, Exit: hoursD(100), Remaining: hoursD(99)},
		},
	}}
	res := ReplayPlan(plan, OrderTrace)
	if res.Planned != 2 || res.Performed != 2 || res.Saved != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplayPlanSavesWaitingExits(t *testing.T) {
	// Three slots, three long VMs and a short one that exits at 1h20m:
	// LARS copies the long VMs first, so the short VM's slot frees at
	// 1h20m, a start that cannot beat its exit: saved. Under trace order
	// the short VM (lowest ID) goes first and is migrated at 1h.
	plan := []PlannedBatch{{
		Trigger: hoursD(1),
		Host:    0,
		VMs: []PlannedVM{
			{ID: 1, Exit: hoursD(1) + 20*time.Minute, Remaining: 20 * time.Minute},
			{ID: 2, Exit: hoursD(200), Remaining: hoursD(199)},
			{ID: 3, Exit: hoursD(200), Remaining: hoursD(199)},
			{ID: 4, Exit: hoursD(200), Remaining: hoursD(199)},
		},
	}}
	base := ReplayPlan(plan, OrderTrace)
	if base.Performed != 4 || base.Saved != 0 {
		t.Fatalf("trace order: %+v", base)
	}
	lars := ReplayPlan(plan, OrderLARS)
	if lars.Performed != 3 || lars.Saved != 1 {
		t.Fatalf("LARS order: %+v", lars)
	}
}

// TestReplayTraceOrderOfLARSPlan: a plan recorded by a LARS engine stores
// each batch longest-first, and its trace-order replay still runs in
// creation order. VMs 1–4 share a host and VM 1 exits 20 minutes after the
// trigger: in ID order it takes one of the three slots at once and is
// migrated, where the LARS order would save it.
func TestReplayTraceOrderOfLARSPlan(t *testing.T) {
	p, ctl := newPool(4)
	e := New(Config{
		Strategy: OrderLARS, Pred: model.Oracle{},
		Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour,
	})
	for id := cluster.VMID(1); id <= 4; id++ {
		lifetime := hoursD(200)
		if id == 1 {
			lifetime = time.Hour + 20*time.Minute
		}
		if err := p.Place(mkVM(id, 4, 0, lifetime), p.Host(0)); err != nil {
			t.Fatal(err)
		}
	}
	e.Inject(ctl, time.Hour)
	if len(e.Plan) != 1 || e.Plan[0].VMs[0].ID != 2 {
		t.Fatalf("LARS engine recorded %+v, want one batch led by VM 2", e.Plan)
	}
	if res := ReplayPlan(e.Plan, OrderTrace); res.Performed != 4 || res.Saved != 0 {
		t.Fatalf("trace-order replay: %+v, want 4 performed and 0 saved", res)
	}
	if res := ReplayPlan(e.Plan, OrderLARS); res.Performed != 3 || res.Saved != 1 {
		t.Fatalf("LARS replay: %+v, want 3 performed and 1 saved", res)
	}
}

func TestReplayPlanRespectsTrigger(t *testing.T) {
	// A batch triggered at t=10h cannot start before then even with free
	// slots; a VM exiting at 9h is saved outright.
	plan := []PlannedBatch{{
		Trigger: hoursD(10),
		Host:    0,
		VMs:     []PlannedVM{{ID: 1, Exit: hoursD(9), Remaining: 0}},
	}}
	res := ReplayPlan(plan, OrderTrace)
	if res.Saved != 1 || res.Performed != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplayPlanSlotContention(t *testing.T) {
	// Nine long VMs, 3 slots, 20-minute copies: completion takes 3 waves;
	// all performed.
	var vms []PlannedVM
	for i := 0; i < 9; i++ {
		vms = append(vms, PlannedVM{ID: 0, Exit: hoursD(100), Remaining: hoursD(99)})
	}
	res := ReplayPlan([]PlannedBatch{{Trigger: 0, VMs: vms}}, OrderTrace)
	if res.Performed != 9 {
		t.Fatalf("performed = %d, want 9", res.Performed)
	}
}

func TestReplayLARSNeverWorseOnFixedPlan(t *testing.T) {
	// On a fixed plan, deferring short-remaining VMs can only help: LARS
	// performed <= trace-order performed for any per-host mix.
	plan := []PlannedBatch{
		{Trigger: hoursD(1), VMs: []PlannedVM{
			{ID: 1, Exit: hoursD(1.3), Remaining: hoursD(0.3)},
			{ID: 2, Exit: hoursD(50), Remaining: hoursD(49)},
			{ID: 3, Exit: hoursD(2), Remaining: hoursD(1)},
			{ID: 4, Exit: hoursD(80), Remaining: hoursD(79)},
		}},
		{Trigger: hoursD(5), VMs: []PlannedVM{
			{ID: 5, Exit: hoursD(5.2), Remaining: hoursD(0.2)},
			{ID: 6, Exit: hoursD(90), Remaining: hoursD(85)},
		}},
	}
	base := ReplayPlan(plan, OrderTrace)
	lars := ReplayPlan(plan, OrderLARS)
	if lars.Performed > base.Performed {
		t.Fatalf("LARS %+v worse than baseline %+v", lars, base)
	}
	if lars.Saved < base.Saved {
		t.Fatalf("LARS saved %d < baseline %d on fixed plan", lars.Saved, base.Saved)
	}
}
