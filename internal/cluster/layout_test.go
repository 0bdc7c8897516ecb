package cluster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"lava/internal/resources"
	"lava/internal/simtime"
)

// TestPoolHostLookup holds Pool.Host to a map reference through random
// membership changes: a dense pool, removals of middle and top hosts,
// AddHosts after removals, and IDs that name no host (negative, out of
// range, removed), which must read nil. InvalidateHost of such an ID must
// publish nothing.
func TestPoolHostLookup(t *testing.T) {
	capacity := resources.Cores(8, 32768, 0)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool("lookup", rng.Intn(12), capacity)
		ref := map[HostID]*Host{}
		for _, h := range p.Hosts() {
			ref[h.ID] = h
		}
		var events []HostEvent
		p.Subscribe(func(_ *Host, ev HostEvent) { events = append(events, ev) })

		check := func(step string) {
			t.Helper()
			top := HostID(len(p.Hosts()) + 3)
			if hs := p.Hosts(); len(hs) > 0 {
				top = hs[len(hs)-1].ID + 3
			}
			for id := HostID(-3); id <= top; id++ {
				if got := p.Host(id); got != ref[id] {
					t.Fatalf("seed %d, %s: Host(%d) = %v, want %v", seed, step, id, got, ref[id])
				}
			}
			for _, id := range []HostID{math.MinInt32, math.MaxInt32} {
				if got := p.Host(id); got != nil {
					t.Fatalf("seed %d, %s: Host(%d) = %v, want nil", seed, step, id, got)
				}
			}
			if len(ref) != p.NumHosts() {
				t.Fatalf("seed %d, %s: %d hosts, reference has %d", seed, step, p.NumHosts(), len(ref))
			}
			events = events[:0]
			p.InvalidateHost(top)
			p.InvalidateHost(-1)
			if len(events) != 0 {
				t.Fatalf("seed %d, %s: InvalidateHost of an unknown ID published %v", seed, step, events)
			}
		}

		check("dense")
		for step := 0; step < 30; step++ {
			hs := p.Hosts()
			switch op := rng.Intn(4); {
			case op == 0 && len(hs) > 2: // a middle host
				id := hs[1+rng.Intn(len(hs)-2)].ID
				if err := p.RemoveHost(id); err != nil {
					t.Fatal(err)
				}
				delete(ref, id)
				check("remove middle")
			case op == 1 && len(hs) > 0: // the top host
				id := hs[len(hs)-1].ID
				if err := p.RemoveHost(id); err != nil {
					t.Fatal(err)
				}
				delete(ref, id)
				check("remove top")
				if err := p.RemoveHost(id); err == nil {
					t.Fatalf("seed %d: removing host %d twice succeeded", seed, id)
				}
			default:
				for _, h := range p.AddHosts(1+rng.Intn(3), capacity) {
					if ref[h.ID] != nil {
						t.Fatalf("seed %d: AddHosts reused ID %d", seed, h.ID)
					}
					ref[h.ID] = h
				}
				check("add")
			}
		}
	}
}

// TestResidualProperty runs random sequences of placements, exits,
// migrations, LAVA state transitions, resets and clones, and after every
// step compares each host's ResidualCount and IsResidual with a reference
// set of residual VM IDs.
func TestResidualProperty(t *testing.T) {
	const hosts = 4
	capacity := resources.Cores(16, 65536, 0)
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool("residual", hosts, capacity)
		residual := map[VMID]bool{} // every running VM, true when residual
		var live []VMID
		next := VMID(0)
		now := time.Duration(0)

		var orig *Pool            // the pool before the last clone
		var origRes map[VMID]bool // its residual set at the clone

		check := func(p *Pool, residual map[VMID]bool, step string) {
			t.Helper()
			for _, h := range p.Hosts() {
				want := 0
				for _, vm := range h.VMs() {
					if residual[vm.ID] {
						want++
					}
					if got := h.IsResidual(vm.ID); got != residual[vm.ID] {
						t.Fatalf("seed %d, %s: host %d IsResidual(%d) = %v, want %v", seed, step, h.ID, vm.ID, got, residual[vm.ID])
					}
				}
				if got := h.ResidualCount(); got != want {
					t.Fatalf("seed %d, %s: host %d ResidualCount = %d, want %d", seed, step, h.ID, got, want)
				}
				if h.IsResidual(next + 1) {
					t.Fatalf("seed %d, %s: host %d calls an absent VM residual", seed, step, h.ID)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
		}
		markHost := func(h *Host, v bool) {
			for _, vm := range h.VMs() {
				residual[vm.ID] = v
			}
		}

		for step := 0; step < 200; step++ {
			now += time.Minute
			h := p.Host(HostID(rng.Intn(hosts)))
			var name string
			switch rng.Intn(9) {
			case 0, 1:
				name = "place"
				next++
				vm := newVM(next, int64(1+rng.Intn(4)))
				if h.Fits(vm.Shape) {
					if err := p.Place(vm, h); err != nil {
						t.Fatal(err)
					}
					residual[vm.ID] = false
					live = append(live, vm.ID)
				}
			case 2:
				name = "exit"
				if len(live) > 0 {
					k := rng.Intn(len(live))
					id := live[k]
					if _, _, err := p.Exit(id); err != nil {
						t.Fatal(err)
					}
					delete(residual, id)
					live = append(live[:k], live[k+1:]...)
				}
			case 3:
				name = "migrate"
				if len(live) > 0 {
					id := live[rng.Intn(len(live))]
					src := p.HostOf(id)
					if h != src && h.Fits(src.VM(id).Shape) {
						if _, err := p.Migrate(id, h); err != nil {
							t.Fatal(err)
						}
						residual[id] = false // a migrated VM joins its new host's epoch
					}
				}
			case 4:
				name = "start recycling"
				h.OpenAs(simtime.LC2, now)
				h.StartRecycling()
				markHost(h, true)
			case 5:
				name = "demote"
				h.DemoteClass(now)
				markHost(h, true)
			case 6:
				name = "promote"
				h.PromoteClass(now)
				markHost(h, true)
			case 7:
				name = "reset"
				h.ResetLAVA()
				markHost(h, false)
			case 8:
				name = "clone"
				orig, origRes = p, make(map[VMID]bool, len(residual))
				for id, r := range residual {
					origRes[id] = r
				}
				p = p.Clone()
			}
			check(p, residual, name)
		}
		if orig != nil {
			check(orig, origRes, "original after its clone changed")
		}
	}
}
