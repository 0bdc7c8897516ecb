package cluster

import (
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"lava/internal/resources"
)

func newVM(id VMID, cores int64) *VM {
	return &VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0)}
}

// TestVMSize: a VM stays in the 192-byte allocation size class, so that
// the binding handle it carries costs a replay no memory.
func TestVMSize(t *testing.T) {
	if n := unsafe.Sizeof(VM{}); n > 192 {
		t.Fatalf("cluster.VM is %d bytes, over 192", n)
	}
}

// TestHostSize: a Host stays at 88 bytes with 8-byte pointers (72 with
// 4-byte ones), the size its packed fields give, so a pool's host slab
// costs no more per host than that.
func TestHostSize(t *testing.T) {
	limit := uintptr(88)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		limit = 72 // the VM slice header shrinks
	}
	if n := unsafe.Sizeof(Host{}); n > limit {
		t.Fatalf("cluster.Host is %d bytes, over %d", n, limit)
	}
}

// TestNewPoolAllocs: building a pool costs a fixed number of allocations
// (the pool, its VM index, the host slab and the host pointers), not one
// or more per host. The collector is off while it counts: a cycle that a
// megabyte slab per run starts makes runtime allocations of its own.
func TestNewPoolAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	capacity := resources.Cores(32, 131072, 0)
	if n := testing.AllocsPerRun(20, func() { NewPool("allocs", 10_000, capacity) }); n > 4 {
		t.Fatalf("NewPool(10000) made %v allocations, want at most 4", n)
	}
}

func TestPlaceExitBookkeeping(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(32, 131072, 0))
	vm := newVM(1, 4)
	h := p.Host(0)
	if err := p.Place(vm, h); err != nil {
		t.Fatal(err)
	}
	if p.NumVMs() != 1 || h.NumVMs() != 1 || vm.Host != h {
		t.Fatalf("placement bookkeeping wrong: %d vms, host has %d", p.NumVMs(), h.NumVMs())
	}
	if h.Used() != vm.Shape {
		t.Fatalf("used = %s, want %s", h.Used(), vm.Shape)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	host, got, err := p.Exit(1)
	if err != nil {
		t.Fatal(err)
	}
	if host != h || got != vm || vm.Host != nil {
		t.Fatal("exit bookkeeping wrong")
	}
	if !h.Used().IsZero() || p.NumVMs() != 0 {
		t.Fatal("resources not released")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEachVMVisitsWhatVMsLists(t *testing.T) {
	p := NewPool("test", 1, resources.Cores(32, 131072, 0))
	h := p.Host(0)
	h.EachVM(func(*VM) { t.Fatal("visited a VM on a never-used host") })
	for id := VMID(1); id <= 5; id++ {
		if err := p.Place(newVM(id, 2), h); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := p.Exit(3); err != nil {
		t.Fatal(err)
	}
	seen := map[VMID]int{}
	h.EachVM(func(vm *VM) { seen[vm.ID]++ })
	vms := h.VMs()
	if len(seen) != len(vms) {
		t.Fatalf("EachVM visited %d VMs, VMs lists %d", len(seen), len(vms))
	}
	for _, vm := range vms {
		if seen[vm.ID] != 1 {
			t.Fatalf("vm %d visited %d times", vm.ID, seen[vm.ID])
		}
	}
}

func TestPlaceRejectsDoubleBooking(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(32, 131072, 0))
	vm := newVM(1, 4)
	if err := p.Place(vm, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(vm, p.Host(1)); err == nil {
		t.Fatal("double placement must fail")
	}
}

func TestPlaceRejectsOverflow(t *testing.T) {
	p := NewPool("test", 1, resources.Cores(8, 32768, 0))
	if err := p.Place(newVM(1, 8), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(newVM(2, 1), p.Host(0)); err == nil {
		t.Fatal("overflow placement must fail")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExitUnknownVM(t *testing.T) {
	p := NewPool("test", 1, resources.Cores(8, 32768, 0))
	if _, _, err := p.Exit(99); err == nil {
		t.Fatal("exiting unknown VM must fail")
	}
}

func TestMigrate(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(32, 131072, 0))
	vm := newVM(1, 4)
	if err := p.Place(vm, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	src, err := p.Migrate(1, p.Host(1))
	if err != nil {
		t.Fatal(err)
	}
	if src.ID != 0 || vm.Host.ID != 1 || p.HostOf(1) != p.Host(1) {
		t.Fatalf("migration bookkeeping wrong: src=%d host=%v index=%v", src.ID, vm.Host, p.HostOf(1))
	}
	if !p.Host(0).Empty() || p.Host(1).NumVMs() != 1 {
		t.Fatal("hosts inconsistent after migration")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateToFullHostRollsBack(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(8, 32768, 0))
	vm := newVM(1, 4)
	blocker := newVM(2, 8)
	if err := p.Place(vm, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(blocker, p.Host(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(1, p.Host(1)); err == nil {
		t.Fatal("migration to full host must fail")
	}
	if vm.Host.ID != 0 || p.HostOf(1).ID != 0 {
		t.Fatal("rollback did not restore source placement")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateRefusedKeepsResidual: a refused move is checked before it
// starts, so the VM stays on its host with the policy's mark it carries
// (LAVA's residual flag; the policy's half of this test is
// TestLAVAMigrateRefusedKeepsResidual in internal/scheduler).
func TestMigrateRefusedKeepsResidual(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(8, 32768, 0))
	if err := p.Place(newVM(1, 4), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(newVM(2, 8), p.Host(1)); err != nil {
		t.Fatal(err)
	}
	src := p.Host(0)
	src.VM(1).Mark = true
	occ := src.Occupancy()
	if _, err := p.Migrate(1, p.Host(1)); err == nil {
		t.Fatal("migration to a host without room must fail")
	}
	if vm := src.VM(1); vm == nil || !vm.Mark || src.Occupancy() != occ {
		t.Fatalf("after a refused move: vm 1 on the source %v, marked %v, occupancy %d -> %d; want true, true, unchanged",
			vm != nil, vm != nil && vm.Mark, occ, src.Occupancy())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHostOccupancy: a host's occupancy count moves when, and only when,
// the host goes empty — by an exit or by its last VM migrating away — and a
// host that reuses a removed host's ID starts past the removed one's count.
func TestHostOccupancy(t *testing.T) {
	capacity := resources.Cores(8, 32768, 0)
	p := NewPool("test", 2, capacity)
	h0, h1 := p.Host(0), p.Host(1)
	step := func(what string, err error, want0, want1 uint32) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if h0.Occupancy() != want0 || h1.Occupancy() != want1 {
			t.Fatalf("%s: occupancies %d, %d; want %d, %d", what, h0.Occupancy(), h1.Occupancy(), want0, want1)
		}
	}
	step("new pool", nil, 0, 0)
	step("place", p.Place(newVM(1, 2), h0), 0, 0)
	step("second place", p.Place(newVM(2, 2), h0), 0, 0)
	_, _, err := p.Exit(1)
	step("partial exit", err, 0, 0)
	_, err = p.Migrate(2, h1)
	step("last VM migrates away", err, 1, 0)
	_, _, err = p.Exit(2)
	step("last exit", err, 1, 1)
	step("refill", p.Place(newVM(3, 2), h1), 1, 1)

	// Retire the top host and take its ID again.
	_, err = p.Migrate(3, h0)
	step("drain host 1", err, 1, 2)
	if err := p.RemoveHost(1); err != nil {
		t.Fatal(err)
	}
	again := p.AddHosts(1, capacity)[0]
	if again.ID != 1 || again.Occupancy() <= 2 {
		t.Fatalf("host %d added after removing host 1 (occupancy 2) starts at occupancy %d, want past 2", again.ID, again.Occupancy())
	}
}

func TestMigrateToSameHostFails(t *testing.T) {
	p := NewPool("test", 1, resources.Cores(8, 32768, 0))
	if err := p.Place(newVM(1, 1), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(1, p.Host(0)); err == nil {
		t.Fatal("self-migration must fail")
	}
}

func TestEmptyHostMetrics(t *testing.T) {
	p := NewPool("test", 4, resources.Cores(10, 40960, 0))
	if got := p.EmptyHostFraction(); got != 1.0 {
		t.Fatalf("empty pool fraction = %v, want 1", got)
	}
	if err := p.Place(newVM(1, 5), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if got := p.EmptyHosts(); got != 3 {
		t.Fatalf("EmptyHosts = %d, want 3", got)
	}
	if got := p.EmptyHostFraction(); got != 0.75 {
		t.Fatalf("EmptyHostFraction = %v, want 0.75", got)
	}
	// Empty-to-free: 30 of 35 free cores are on empty hosts.
	want := 30000.0 / 35000.0
	if got := p.EmptyToFreeRatio(); got != want {
		t.Fatalf("EmptyToFreeRatio = %v, want %v", got, want)
	}
	// Packing density: host0 is half full -> 5/10.
	if got := p.PackingDensity(); got != 0.5 {
		t.Fatalf("PackingDensity = %v, want 0.5", got)
	}
}

func TestUtilization(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(10, 40960, 0))
	if err := p.Place(newVM(1, 5), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	cpu, _ := p.Utilization()
	if cpu != 0.25 {
		t.Fatalf("cpu utilization = %v, want 0.25", cpu)
	}
}

func TestVMUptime(t *testing.T) {
	vm := &VM{ID: 1, Created: 2 * time.Hour, TrueLifetime: 5 * time.Hour}
	if got := vm.Uptime(4 * time.Hour); got != 2*time.Hour {
		t.Fatalf("Uptime = %v, want 2h", got)
	}
	if got := vm.Uptime(time.Hour); got != 0 {
		t.Fatalf("Uptime before creation = %v, want 0", got)
	}
	if got := vm.TrueExit(); got != 7*time.Hour {
		t.Fatalf("TrueExit = %v, want 7h", got)
	}
}
