package defrag

import (
	"testing"
	"time"
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
