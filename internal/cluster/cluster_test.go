package cluster

import (
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"lava/internal/resources"
	"lava/internal/simtime"
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

// TestHostSize: a Host stays at 104 bytes with 8-byte pointers (84 with
// 4-byte ones), the size its packed fields give, so a pool's host slab
// costs no more per host than that.
func TestHostSize(t *testing.T) {
	limit := uintptr(104)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		limit = 84 // the VM slice header and the int-sized Class shrink
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
// starts, so the VM keeps its place in its recycling host's residual set.
func TestMigrateRefusedKeepsResidual(t *testing.T) {
	p := NewPool("test", 2, resources.Cores(8, 32768, 0))
	if err := p.Place(newVM(1, 4), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(newVM(2, 8), p.Host(1)); err != nil {
		t.Fatal(err)
	}
	src := p.Host(0)
	src.OpenAs(simtime.LC3, 0)
	src.StartRecycling()
	if _, err := p.Migrate(1, p.Host(1)); err == nil {
		t.Fatal("migration to a host without room must fail")
	}
	if src.ResidualCount() != 1 || !src.IsResidual(1) {
		t.Fatalf("after a refused move: residual count %d, vm 1 residual %v; want 1, true", src.ResidualCount(), src.IsResidual(1))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
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

func TestLAVAStateMachine(t *testing.T) {
	h := &Host{Capacity: resources.Cores(10, 40960, 0)}
	now := 5 * time.Hour

	h.OpenAs(simtime.LC3, now)
	if h.State != StateOpen || h.Class != simtime.LC3 {
		t.Fatalf("after OpenAs: %v", h)
	}
	if want := now + simtime.LC3.Deadline(); h.Deadline != want {
		t.Fatalf("deadline = %v, want %v", h.Deadline, want)
	}

	vm1, vm2 := newVM(1, 4), newVM(2, 4)
	h.add(vm1)
	h.add(vm2)
	h.StartRecycling()
	if h.State != StateRecycling || h.ResidualCount() != 2 {
		t.Fatalf("after StartRecycling: %v residual=%d", h, h.ResidualCount())
	}
	if !h.IsResidual(1) || !h.IsResidual(2) {
		t.Fatal("both VMs must be residual")
	}

	// A newer, shorter VM arrives; it is not residual.
	vm3 := newVM(3, 1)
	h.add(vm3)
	if h.IsResidual(3) {
		t.Fatal("vm3 must not be residual")
	}

	// Residual VMs exit -> demote class; remaining VMs become residual.
	h.remove(1)
	h.remove(2)
	if h.ResidualCount() != 0 {
		t.Fatalf("residual count = %d, want 0", h.ResidualCount())
	}
	h.DemoteClass(now + time.Hour)
	if h.Class != simtime.LC2 {
		t.Fatalf("class after demote = %v, want LC2", h.Class)
	}
	if !h.IsResidual(3) {
		t.Fatal("vm3 must be residual after demotion")
	}

	// Deadline expiry -> promote.
	h.PromoteClass(now + 2*time.Hour)
	if h.Class != simtime.LC3 {
		t.Fatalf("class after promote = %v, want LC3", h.Class)
	}

	h.ResetLAVA()
	if h.State != StateEmpty || h.Class != 0 || h.ResidualCount() != 0 {
		t.Fatalf("after reset: %v", h)
	}
}

func TestHostMaxUtilization(t *testing.T) {
	h := &Host{Capacity: resources.Cores(10, 10000, 0)}
	vm := &VM{ID: 1, Shape: resources.Vector{CPUMilli: 9500, MemoryMB: 1000}}
	h.add(vm)
	if got := h.MaxUtilization(); got != 0.95 {
		t.Fatalf("MaxUtilization = %v, want 0.95", got)
	}
	if got := h.MaxUtilization(); got < RecyclingThreshold == false {
		_ = got // 0.95 >= 0.9: would trigger recycling transition
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
