package scheduler

import (
	"math/rand"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/simtime"
)

// TestLAVAStateMachine drives LAVA's moves of one host directly: open,
// recycling with every VM residual, a newcomer outside the residual set,
// demotion once the residuals left, promotion, and the emptied host, which
// reads as empty with no reset.
func TestLAVAStateMachine(t *testing.T) {
	p := cluster.NewPool("sm", 1, resources.Cores(10, 40960, 0))
	h := p.Host(0)
	l := NewLAVA(model.Oracle{}, 0)
	now := 5 * time.Hour
	bare := func(vm *cluster.VM) {
		t.Helper()
		if err := p.Place(vm, h); err != nil {
			t.Fatal(err)
		}
	}
	residual := func(id cluster.VMID) bool { vm := h.VM(id); return vm != nil && vm.Mark }

	vm1, vm2 := newVM(1, 4, 0, time.Hour), newVM(2, 4, 0, time.Hour)
	bare(vm1)
	sl := l.hosts.at(h)
	sl.state = stateOpen
	sl.setClass(simtime.LC3, now)
	if v := HostOf(l, h); v.State != "open" || v.Class != simtime.LC3 {
		t.Fatalf("after open: %+v", v)
	}
	if want := now + simtime.LC3.Deadline(); HostOf(l, h).Deadline != want {
		t.Fatalf("deadline = %v, want %v", HostOf(l, h).Deadline, want)
	}

	bare(vm2)
	l.hosts.at(h).state = stateRecycling
	markResidual(h)
	if v := HostOf(l, h); v.State != "recycling" || Residuals(h) != 2 {
		t.Fatalf("after recycling: %+v residual=%d", v, Residuals(h))
	}
	if !residual(1) || !residual(2) {
		t.Fatal("both VMs must be residual")
	}

	// A newer, shorter VM arrives; it is not residual, even on an object
	// that carried the mark before.
	vm3 := newVM(3, 1, now, 30*time.Minute)
	vm3.Mark = true
	bare(vm3)
	l.OnPlaced(p, h, vm3, now)
	if residual(3) {
		t.Fatal("vm3 must not be residual")
	}

	// Residual VMs exit -> demote class; remaining VMs become residual.
	for _, id := range []cluster.VMID{1, 2} {
		if _, _, err := p.Exit(id); err != nil {
			t.Fatal(err)
		}
	}
	if Residuals(h) != 0 {
		t.Fatalf("residual count = %d, want 0", Residuals(h))
	}
	l.reclass(h, HostOf(l, h).Class.Dec(), now+time.Hour)
	if v := HostOf(l, h); v.Class != simtime.LC2 {
		t.Fatalf("class after demote = %v, want LC2", v.Class)
	}
	if !residual(3) {
		t.Fatal("vm3 must be residual after demotion")
	}

	// Deadline expiry -> promote.
	l.reclass(h, HostOf(l, h).Class.Inc(), now+2*time.Hour)
	if v := HostOf(l, h); v.Class != simtime.LC3 {
		t.Fatalf("class after promote = %v, want LC3", v.Class)
	}

	// The last VM leaves without a hook: the host reads as empty.
	if _, _, err := p.Exit(3); err != nil {
		t.Fatal(err)
	}
	if v := HostOf(l, h); v.State != "empty" || v.Class != 0 || Residuals(h) != 0 {
		t.Fatalf("after the host emptied: %+v residual=%d", v, Residuals(h))
	}
}

// TestHostMaxUtilization: a host whose CPU is 95% used and memory 10% is
// at 0.95 utilization, which is over LAVA's 90% trigger: its first VM opens
// it and starts it recycling at once.
func TestHostMaxUtilization(t *testing.T) {
	p := cluster.NewPool("util", 1, resources.Cores(10, 10000, 0))
	h := p.Host(0)
	l := NewLAVA(model.Oracle{}, 0)
	vm := &cluster.VM{ID: 1, Shape: resources.Vector{CPUMilli: 9500, MemoryMB: 1000}, TrueLifetime: time.Hour}
	if err := p.Place(vm, h); err != nil {
		t.Fatal(err)
	}
	if got := resources.MaxUtilization(h.Used(), h.Capacity); got != 0.95 {
		t.Fatalf("MaxUtilization = %v, want 0.95", got)
	}
	l.OnPlaced(p, h, vm, 0)
	if v := HostOf(l, h); v.State != "recycling" {
		t.Fatalf("host at 0.95 utilization is %q, want recycling", v.State)
	}
}

// TestResidualProperty runs random sequences of placements, exits and
// migrations, each told to LAVA, of exits it never hears of, and of direct
// state moves (recycling, demotion, promotion), and after every step
// compares the VMs' residual marks with a reference set of residual VM
// IDs. The reference follows LAVA's rules: a placed or migrated VM joins
// its host's current epoch, a host that starts recycling or changes class
// makes all its VMs residual, and a recycling host whose residuals have
// all left is demoted.
func TestResidualProperty(t *testing.T) {
	const hosts = 4
	capacity := resources.Cores(16, 65536, 0)
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := cluster.NewPool("residual", hosts, capacity)
		l := NewLAVA(model.Oracle{}, 0)
		residual := map[cluster.VMID]bool{} // every running VM, true when residual
		var live []cluster.VMID
		next := cluster.VMID(0)
		now := time.Duration(0)

		check := func(step string) {
			t.Helper()
			for _, h := range p.Hosts() {
				want := 0
				for _, vm := range h.VMs() {
					if residual[vm.ID] {
						want++
					}
					if vm.Mark != residual[vm.ID] {
						t.Fatalf("seed %d, %s: host %d vm %d residual %v, want %v", seed, step, h.ID, vm.ID, vm.Mark, residual[vm.ID])
					}
				}
				if got := Residuals(h); got != want {
					t.Fatalf("seed %d, %s: host %d residual count %d, want %d", seed, step, h.ID, got, want)
				}
				if h.VM(next+1) != nil {
					t.Fatalf("seed %d, %s: host %d runs an absent VM", seed, step, h.ID)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
		}
		markHost := func(h *cluster.Host) {
			for _, vm := range h.VMs() {
				residual[vm.ID] = true
			}
		}
		// placed and exited tell LAVA of a VM that joined or left h and
		// move the reference as LAVA's rules say it moves.
		placed := func(h *cluster.Host, vm *cluster.VM) {
			before := HostOf(l, h).State
			residual[vm.ID] = false
			l.OnPlaced(p, h, vm, now)
			if before != "recycling" && HostOf(l, h).State == "recycling" {
				markHost(h)
			}
		}
		exited := func(h *cluster.Host, vm *cluster.VM) {
			drained := HostOf(l, h).State == "recycling"
			for _, v := range h.VMs() {
				drained = drained && !residual[v.ID]
			}
			l.OnExited(p, h, vm, now)
			if drained {
				markHost(h)
			}
		}

		for step := 0; step < 200; step++ {
			now += time.Minute
			h := p.Host(cluster.HostID(rng.Intn(hosts)))
			v := HostOf(l, h)
			var name string
			switch rng.Intn(9) {
			case 0, 1:
				name = "place"
				next++
				vm := newVM(next, int64(1+rng.Intn(4)), now, time.Duration(1+rng.Intn(300))*time.Hour)
				if h.Fits(vm.Shape) {
					if err := p.Place(vm, h); err != nil {
						t.Fatal(err)
					}
					placed(h, vm)
					live = append(live, vm.ID)
				}
			case 2, 3:
				name = "exit"
				if len(live) > 0 {
					k := rng.Intn(len(live))
					id := live[k]
					hh, vm, err := p.Exit(id)
					if err != nil {
						t.Fatal(err)
					}
					delete(residual, id)
					live = append(live[:k], live[k+1:]...)
					if k%2 == 0 {
						exited(hh, vm)
					} else {
						name = "exit without a hook"
					}
				}
			case 4:
				name = "migrate"
				if len(live) > 0 {
					id := live[rng.Intn(len(live))]
					src := p.HostOf(id)
					if h != src && h.Fits(src.VM(id).Shape) {
						if _, err := p.Migrate(id, h); err != nil {
							t.Fatal(err)
						}
						vm := h.VM(id)
						residual[id] = false // it left its source's residual set
						exited(src, vm)
						placed(h, vm)
					}
				}
			case 5:
				name = "start recycling"
				if !h.Empty() {
					sl := l.hosts.at(h)
					if sl.state == stateEmpty {
						sl.setClass(simtime.LC2, now)
					}
					sl.state = stateRecycling
					markResidual(h)
					markHost(h)
				}
			case 6:
				name = "demote"
				if v.State != "empty" {
					l.reclass(h, v.Class.Dec(), now)
					markHost(h)
				}
			case 7:
				name = "promote"
				if v.State != "empty" {
					l.reclass(h, v.Class.Inc(), now)
					markHost(h)
				}
			case 8:
				name = "tick"
				promoted := map[cluster.HostID]bool{}
				for _, h := range p.Hosts() {
					if v := HostOf(l, h); v.State != "empty" && now > v.Deadline {
						promoted[h.ID] = true
					}
				}
				l.OnTick(p, now)
				for _, h := range p.Hosts() {
					if promoted[h.ID] {
						markHost(h)
					}
				}
			}
			check(name)
		}
	}
}
