package sim

import (
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// seamMachine builds a bare 4-host machine for direct seam testing: no
// workload, whole-host VM shapes so capacity arithmetic is exact.
func seamMachine(t *testing.T) *Machine {
	t.Helper()
	tr := &trace.Trace{
		PoolName: "seam-test", Hosts: 4,
		HostCPU: 1000, HostMem: 1000,
		Horizon: 10 * time.Hour,
	}
	m, err := NewMachine(Config{Trace: tr, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seamRecord(id int, at time.Duration) trace.Record {
	return trace.Record{
		ID: cluster.VMID(id), Arrival: at, Lifetime: 8 * time.Hour,
		Shape: resources.Vector{CPUMilli: 1000, MemoryMB: 1000},
		Feat:  features.Features{MetadataID: "seam"},
	}
}

// TestMachineHostMembership pins the host add/remove seam the elasticity
// layer drives: dense ID growth, refusal to remove occupied hosts, and the
// host-event notifications score caches rely on.
func TestMachineHostMembership(t *testing.T) {
	m := seamMachine(t)
	var added, removed []cluster.HostID
	m.Pool().Subscribe(func(h *cluster.Host, ev cluster.HostEvent) {
		switch ev {
		case cluster.HostAdded:
			added = append(added, h.ID)
		case cluster.HostRemoved:
			removed = append(removed, h.ID)
		}
	})

	if err := m.AddHosts(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := m.Pool().NumHosts(); n != 6 {
		t.Fatalf("pool has %d hosts after add, want 6", n)
	}
	if len(added) != 2 || added[0] != 4 || added[1] != 5 {
		t.Fatalf("HostAdded events = %v, want [4 5]", added)
	}
	if err := m.AddHosts(0, time.Hour); err == nil {
		t.Fatal("adding zero hosts succeeded")
	}

	// Occupy host then try to remove it.
	if _, err := m.Create(seamRecord(1, 2*time.Hour), 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	victim := m.Pool().HostOf(1).ID
	if err := m.RemoveHost(victim, 3*time.Hour); err == nil {
		t.Fatal("removing an occupied host succeeded")
	}
	// An empty one goes, with its event.
	if err := m.RemoveHost(5, 3*time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := m.Pool().NumHosts(); n != 5 {
		t.Fatalf("pool has %d hosts after remove, want 5", n)
	}
	if len(removed) != 1 || removed[0] != 5 {
		t.Fatalf("HostRemoved events = %v, want [5]", removed)
	}
	// Time moved monotonically through the membership ops.
	if m.Now() != 3*time.Hour {
		t.Fatalf("machine clock at %v, want 3h", m.Now())
	}
}

// TestMachineReusedIDAtSameInstant: a VM ID that exits and comes back at
// the same instant names a new VM, and LAVA classifies it by a fresh
// prediction, not the one it memoized for the VM that left.
func TestMachineReusedIDAtSameInstant(t *testing.T) {
	lava := scheduler.NewLAVA(model.Oracle{}, time.Minute)
	m, err := NewMachine(Config{Trace: &trace.Trace{
		PoolName: "reuse-test", Hosts: 2, HostCPU: 1000, HostMem: 1000, Horizon: 10 * time.Hour,
	}, Policy: lava})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Hour
	rec := seamRecord(5, at)
	rec.Lifetime = 2 * time.Minute
	if _, err := m.Create(rec, at); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.Exit(5, at); !ok || err != nil {
		t.Fatalf("Exit(5) = (%v, %v)", ok, err)
	}
	calls := lava.ModelCalls()
	rec.Lifetime = 20 * simtime.Day
	h, err := m.Create(rec, at)
	if err != nil {
		t.Fatal(err)
	}
	if lava.ModelCalls() == calls {
		t.Fatal("the new VM 5 was classified without a model call")
	}
	// The VM fills the host, so it recycles at once: its class is LC4 when
	// an LC3 VM's class score is 1, a recycling host one class above.
	probe := &cluster.VM{ID: 99, Shape: rec.Shape, Created: at, TrueLifetime: 50 * time.Hour}
	if scores, _ := scheduler.LevelScores(lava, nil, h, probe, at); scores[0] != 1 {
		t.Fatalf("host opened for a 20-day VM: an LC3 VM's class score is %v, want 1 (recycling as %v)", scores[0], simtime.LC4)
	}
}

// TestMachineMigrationSeam pins the MigrateOut/MigrateIn contract the
// fleet's merge and rebalance build on: counters, VM identity round-trip,
// the nil-VM advance-only no-op, and capacity failure accounting.
func TestMachineMigrationSeam(t *testing.T) {
	src, dst := seamMachine(t), seamMachine(t)
	at := time.Hour
	if _, err := src.Create(seamRecord(1, at), at); err != nil {
		t.Fatal(err)
	}

	// Round-trip: out of src, into dst.
	vm, ok, err := src.MigrateOut(1, 2*at)
	if err != nil || !ok || vm == nil {
		t.Fatalf("MigrateOut = (%v, %v, %v)", vm, ok, err)
	}
	if vm.ID != 1 || vm.Created != at {
		t.Fatalf("migrated VM lost identity: id=%d created=%v", vm.ID, vm.Created)
	}
	if src.Pool().HostOf(1) != nil {
		t.Fatal("VM still on source after migrate-out")
	}
	h, placed, err := dst.MigrateIn(vm, 2*at)
	if err != nil || !placed || h == nil {
		t.Fatalf("MigrateIn = (%v, %v, %v)", h, placed, err)
	}
	if dst.Pool().HostOf(1) == nil {
		t.Fatal("VM absent from destination after migrate-in")
	}

	// Not-running VMs (never placed / already moved) report ok=false.
	if _, ok, err := src.MigrateOut(1, 3*at); ok || err != nil {
		t.Fatalf("second MigrateOut = (ok=%v, %v), want (false, nil)", ok, err)
	}
	// The nil-VM form is a pure clock advance.
	if _, placed, err := dst.MigrateIn(nil, 4*at); placed || err != nil {
		t.Fatalf("nil MigrateIn = (placed=%v, %v), want (false, nil)", placed, err)
	}
	if dst.Now() != 4*at {
		t.Fatalf("destination clock at %v, want %v", dst.Now(), 4*at)
	}

	// Fill the destination completely; an incoming VM is lost and counted
	// as Failed, not crashed.
	for i := 2; i <= 4; i++ {
		if _, err := dst.Create(seamRecord(i, 4*at), 4*at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Create(seamRecord(9, 4*at), 4*at); err != nil {
		t.Fatal(err)
	}
	vm9, ok, err := src.MigrateOut(9, 5*at)
	if err != nil || !ok {
		t.Fatalf("MigrateOut(9) = (ok=%v, %v)", ok, err)
	}
	if _, placed, err := dst.MigrateIn(vm9, 5*at); placed || err != nil {
		t.Fatalf("MigrateIn into full pool = (placed=%v, %v), want (false, nil)", placed, err)
	}

	sres, err := src.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dst.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sres.MigratedOut != 2 || sres.Exits != 0 {
		t.Fatalf("source counted out=%d exits=%d, want 2/0", sres.MigratedOut, sres.Exits)
	}
	if dres.MigratedIn != 1 || dres.Placements != 3 || dres.Failed != 1 {
		t.Fatalf("destination counted in=%d placements=%d failed=%d, want 1/3/1",
			dres.MigratedIn, dres.Placements, dres.Failed)
	}
	// The seam is closed by Finish like every other mutation.
	if _, _, err := src.MigrateOut(1, 6*at); err == nil {
		t.Fatal("MigrateOut after Finish succeeded")
	}
}
