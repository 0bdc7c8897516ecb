package sim

import (
	"runtime"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// liveVM returns the object the machine runs VM id on.
func liveVM(t *testing.T, m *Machine, id cluster.VMID) *cluster.VM {
	t.Helper()
	h := m.Pool().HostOf(id)
	if h == nil {
		t.Fatalf("vm %d is not running", id)
	}
	return h.VM(id)
}

// dirty sets the fields Create leaves to placement and the policies, so a
// reuse that does not overwrite the whole struct shows.
func dirty(vm *cluster.VM) {
	vm.InitialPrediction, vm.BindSlot, vm.Mark = time.Hour, 7, true
}

// wantFresh fails unless vm is exactly what Create builds for rec at at,
// placed on its host.
func wantFresh(t *testing.T, vm *cluster.VM, rec trace.Record, at time.Duration) {
	t.Helper()
	want := cluster.VM{ID: rec.ID, Shape: rec.Shape, Feat: rec.Feat, Created: at, TrueLifetime: rec.Lifetime, Host: vm.Host}
	if *vm != want || vm.Host == nil {
		t.Fatalf("created vm %d = %+v, want %+v", rec.ID, *vm, want)
	}
}

// TestMachineReusesExitedVMsLater pins the reuse rule of Machine: the object
// of a VM that exits is never handed to a VM created at the instant of its
// exit, the same ID included, and is handed to one created later, every
// field overwritten.
func TestMachineReusesExitedVMsLater(t *testing.T) {
	m := seamMachine(t)
	at := time.Hour
	if _, err := m.Create(seamRecord(1, at), at); err != nil {
		t.Fatal(err)
	}
	gone := liveVM(t, m, 1)
	dirty(gone)
	if ok, err := m.Exit(1, 2*at); !ok || err != nil {
		t.Fatalf("Exit(1) = (%v, %v)", ok, err)
	}
	for _, id := range []int{1, 2} { // the ID again, and another one
		rec := seamRecord(id, 2*at)
		if _, err := m.Create(rec, 2*at); err != nil {
			t.Fatal(err)
		}
		vm := liveVM(t, m, rec.ID)
		if vm == gone {
			t.Fatalf("vm %d created at its predecessor's exit instant got the exited object", id)
		}
		wantFresh(t, vm, rec, 2*at)
	}
	rec := seamRecord(3, 3*at)
	if _, err := m.Create(rec, 3*at); err != nil {
		t.Fatal(err)
	}
	if vm := liveVM(t, m, 3); vm != gone {
		t.Fatal("a create after the exit instant allocated instead of reusing the exited object")
	}
	wantFresh(t, gone, rec, 3*at)
}

// TestMachineReusedVMStartsNonResidual: the object of a VM that exits from
// a recycling host as one of its residual VMs carries no residual mark into
// the VM that reuses it, even when that VM lands on the same host. The
// policy here is best fit; the marks are set as LAVA sets them when a host
// starts recycling, on every VM of the host.
func TestMachineReusedVMStartsNonResidual(t *testing.T) {
	m, err := NewMachine(Config{Trace: &trace.Trace{
		PoolName: "residual-reuse", Hosts: 2, HostCPU: 4000, HostMem: 4000, Horizon: 10 * time.Hour,
	}, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Hour
	for id := 1; id <= 2; id++ {
		if _, err := m.Create(seamRecord(id, at), at); err != nil {
			t.Fatal(err)
		}
	}
	h := m.Pool().HostOf(1)
	if m.Pool().HostOf(2) != h {
		t.Fatal("best fit spread two small VMs over two hosts")
	}
	residual := func(id cluster.VMID) bool { vm := h.VM(id); return vm != nil && vm.Mark }
	count := func() int {
		n := 0
		h.EachVM(func(vm *cluster.VM) {
			if vm.Mark {
				n++
			}
		})
		return n
	}
	h.EachVM(func(vm *cluster.VM) { vm.Mark = true })
	gone := liveVM(t, m, 1)
	if !residual(1) || count() != 2 {
		t.Fatalf("after marking: residual(1)=%v count=%d", residual(1), count())
	}
	if ok, err := m.Exit(1, 2*at); !ok || err != nil {
		t.Fatalf("Exit(1) = (%v, %v)", ok, err)
	}
	rec := seamRecord(3, 3*at)
	got, err := m.Create(rec, 3*at)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || liveVM(t, m, 3) != gone {
		t.Fatalf("vm 3 on %v reusing the exited object: %v; want both on host %d", got, liveVM(t, m, 3) == gone, h.ID)
	}
	if residual(3) || !residual(2) || count() != 1 {
		t.Fatalf("residual(3)=%v residual(2)=%v count=%d, want false, true, 1",
			residual(3), residual(2), count())
	}
	wantFresh(t, gone, rec, 3*at)
}

// killAt kills one VM at the first tick at or after At.
type killAt struct {
	At   time.Duration
	VM   cluster.VMID
	done bool
}

func (k *killAt) Inject(ctl *Control, now time.Duration) {
	if !k.done && now >= k.At {
		k.done = true
		if err := ctl.Kill(k.VM, now); err != nil {
			panic(err)
		}
	}
}

// TestMachineReusesKilledVMsLater is the same rule for a VM an injector
// kills through Control: not reused by a create at the tick that killed it,
// reused by one after it.
func TestMachineReusesKilledVMsLater(t *testing.T) {
	kill := &killAt{At: 2 * time.Hour, VM: 1}
	m, err := NewMachine(Config{Trace: &trace.Trace{
		PoolName: "kill-reuse", Hosts: 4, HostCPU: 1000, HostMem: 1000, Horizon: 10 * time.Hour,
	}, Policy: scheduler.NewBestFit(), Injectors: []Injector{kill}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(seamRecord(1, time.Hour), time.Hour); err != nil {
		t.Fatal(err)
	}
	gone := liveVM(t, m, 1)
	dirty(gone)
	rec := seamRecord(2, kill.At)
	if _, err := m.Create(rec, kill.At); err != nil { // fires the tick that kills vm 1
		t.Fatal(err)
	}
	if !kill.done || m.Pool().HostOf(1) != nil {
		t.Fatal("vm 1 was not killed at the tick")
	}
	if liveVM(t, m, 2) == gone {
		t.Fatal("a create at the kill's tick got the killed object")
	}
	later := kill.At + simtime.TickEvery/2
	rec = seamRecord(3, later)
	if _, err := m.Create(rec, later); err != nil {
		t.Fatal(err)
	}
	if liveVM(t, m, 3) != gone {
		t.Fatal("a create after the kill allocated instead of reusing the killed object")
	}
	wantFresh(t, gone, rec, later)
}

// TestMachineNeverReusesMigratedVM: the VM MigrateOut hands over lives on
// in its destination, so its source never reuses the object.
func TestMachineNeverReusesMigratedVM(t *testing.T) {
	src, dst := seamMachine(t), seamMachine(t)
	at := time.Hour
	if _, err := src.Create(seamRecord(1, at), at); err != nil {
		t.Fatal(err)
	}
	vm, ok, err := src.MigrateOut(1, 2*at)
	if err != nil || !ok {
		t.Fatalf("MigrateOut = (%v, %v, %v)", vm, ok, err)
	}
	if _, placed, err := dst.MigrateIn(vm, 2*at); err != nil || !placed {
		t.Fatalf("MigrateIn = (%v, %v)", placed, err)
	}
	for i := 2; i <= 4; i++ {
		rec := seamRecord(i, time.Duration(i)*at)
		if _, err := src.Create(rec, rec.Arrival); err != nil {
			t.Fatal(err)
		}
		if liveVM(t, src, rec.ID) == vm {
			t.Fatalf("the source reused the migrated VM's object for vm %d", i)
		}
	}
	if got := liveVM(t, dst, 1); got != vm || got.ID != 1 || got.Created != at {
		t.Fatalf("the migrated VM changed under its destination: %+v", *got)
	}
}

// TestStreamedReplayAllocatesPerLiveVM is the allocation guard of a streamed
// replay: a run whose creates outnumber its peak live VMs many times over
// must make fewer than half an allocation per create, so it cannot be
// building one cluster.VM per placement.
func TestStreamedReplayAllocatesPerLiveVM(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	spec := workload.PoolSpec{Name: "alloc-guard", Zone: "z1", Hosts: 48, TargetUtil: 0.65,
		Duration: 10 * simtime.Day, Seed: 3, Diurnal: 0.3}
	g, err := workload.Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	end := g.Meta().End()
	creates, live, peak := 0, 0, 0
	cur := trace.NewEventCursor(g)
	for ev, ok := cur.Next(); ok && ev.Time <= end; ev, ok = cur.Next() {
		if ev.Kind == trace.EventCreate {
			creates++
			live++
			peak = max(peak, live)
		} else {
			live--
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if creates < 5*peak {
		t.Fatalf("%d creates over a peak of %d live VMs: the guard needs at least 5x", creates, peak)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err = workload.Stream(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Trace: g.Meta(), Source: g, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations for %d creates (%d placed), peak %d live", allocs, creates, res.Placements, peak)
	if allocs >= uint64(creates/2) {
		t.Fatalf("%d allocations for %d creates: a replay must not allocate per placement", allocs, creates)
	}
}

// TestMachineBoundsExitsAtOneInstant: on a clock that stands still no
// create can reuse an exited object, so the machine keeps no more of them
// than it has VMs running, plus one.
func TestMachineBoundsExitsAtOneInstant(t *testing.T) {
	m := seamMachine(t)
	at := time.Hour
	if _, err := m.Create(seamRecord(1, at), at); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 100; i++ {
		if _, err := m.Create(seamRecord(i, at), at); err != nil {
			t.Fatal(err)
		}
		if ok, err := m.Exit(cluster.VMID(i), at); !ok || err != nil {
			t.Fatalf("Exit(%d) = (%v, %v)", i, ok, err)
		}
	}
	if n := len(m.ctl.free.vms); n > 2 {
		t.Fatalf("the machine keeps %d exited VMs with 1 running at one instant, want at most 2", n)
	}
}
