package cluster

import (
	"testing"

	"lava/internal/resources"
)

// populatedPool builds a pool of n 16-core hosts holding perHost 2-core VMs
// on each of its first n-1 hosts (the last one stays empty), with host
// 0's VMs carrying the policy's mark and a 1-core reservation on each of
// hosts 0 and 1.
func populatedPool(t testing.TB, n, perHost int) *Pool {
	t.Helper()
	p := NewPool("inv", n, resources.Cores(16, 65536, 0))
	id := VMID(0)
	for _, h := range p.Hosts()[:n-1] {
		for k := 0; k < perHost; k++ {
			id++
			if err := p.Place(newVM(id, 2), h); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Host(0).EachVM(func(vm *VM) { vm.Mark = true })
	for _, h := range p.Hosts()[:2] {
		if _, err := p.Reserve(h, resources.Cores(1, 4096, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckInvariantsCatchesCorruption corrupts a populated pool one way
// per case and requires CheckInvariants to report it. The last two cases
// repeat a VM within one host and add a dangling index entry, so the hosted
// count and the index size balance: a copy of the VM is caught by its index
// entry, which names the original, and the VM itself only by the explicit
// repeat check.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	extra := resources.Cores(1, 4096, 0)
	cases := []struct {
		name    string
		corrupt func(p *Pool)
	}{
		{"vm on two hosts", func(p *Pool) {
			// A copy of VM 1 on host 1, booked in full as Place would.
			vm := *p.Host(0).VM(1)
			h := p.Host(1)
			h.add(&vm)
			p.usedTot = p.usedTot.Add(vm.Shape)
		}},
		{"back-pointer", func(p *Pool) { p.Host(0).VM(1).Host = p.Host(1) }},
		{"index names the wrong host", func(p *Pool) {
			// VM 1's entry is a copy that names host 1, which does not hold it.
			vm := *p.VM(1)
			vm.Host = p.Host(1)
			p.vms[1] = &vm
		}},
		{"used sum", func(p *Pool) {
			p.Host(1).used = p.Host(1).used.Add(extra)
			p.usedTot = p.usedTot.Add(extra)
		}},
		{"usedTot aggregate", func(p *Pool) { p.usedTot = p.usedTot.Add(extra) }},
		{"capTot aggregate", func(p *Pool) { p.capTot = p.capTot.Add(extra) }},
		{"emptyCap aggregate", func(p *Pool) { p.emptyCap = p.emptyCap.Sub(extra) }},
		{"empty-host count", func(p *Pool) { p.empty++ }},
		{"over-committed host", func(p *Pool) {
			over := p.Host(1).Free().Add(extra)
			vm := &VM{ID: 1000, Shape: over}
			p.Host(1).add(vm)
			p.vms[1000] = vm
			p.usedTot = p.usedTot.Add(over)
		}},
		{"stale index entry", func(p *Pool) { p.vms[1000] = &VM{ID: 1000} }},
		{"reservation count", func(p *Pool) { p.Host(1).holds++ }},
		{"reservation shape", func(p *Pool) { p.res[1].shape = p.res[1].shape.Add(extra) }},
		{"reservation off the pool", func(p *Pool) {
			p.res = append(p.res, &Reservation{host: &Host{ID: 1, holds: 1}, shape: extra})
		}},
		{"id repeated on a host, dangling index entry", func(p *Pool) {
			h := p.Host(1)
			vm := *h.VMs()[0]
			h.vms = append(h.vms, &vm)
			h.used = h.used.Add(vm.Shape)
			p.usedTot = p.usedTot.Add(vm.Shape)
			p.vms[1000] = &VM{ID: 1000}
		}},
		{"vm repeated on a host, dangling index entry", func(p *Pool) {
			h := p.Host(1)
			vm := h.VMs()[0]
			h.vms = append(h.vms, vm)
			h.used = h.used.Add(vm.Shape)
			p.usedTot = p.usedTot.Add(vm.Shape)
			p.vms[1000] = &VM{ID: 1000}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := populatedPool(t, 4, 3)
			c.corrupt(p)
			if err := p.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants accepted the corrupted pool")
			}
		})
	}
}

// TestCheckInvariantsAllocatesNothing: the sweep over a pool of 1,000
// hosts holding 4 VMs each, and one empty host, makes no allocation, so it
// can run after every step.
func TestCheckInvariantsAllocatesNothing(t *testing.T) {
	p := populatedPool(t, 1001, 4)
	if n := testing.AllocsPerRun(10, func() {
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CheckInvariants made %v allocations, want 0", n)
	}
}

// FuzzPoolOps drives a pool through every mutation its API offers, three
// input bytes an operation: places that fit and that do not, exits of live
// and unknown IDs, migrations accepted and refused (no room, the VM's own
// host), AddHosts, RemoveHost of empty and occupied hosts and of the top
// host with its ID taken again, a policy's marks set and cleared on a
// host's VMs, reservations that fit and that do not, released once and
// then again, and drain claims put on and ended on any host, claimed or
// not. After every operation the invariants hold, the pool runs exactly
// the VMs the test's ledger holds with the marks the ledger gave them, each
// host's used vector is the sum of its VMs' and its ledger reservations'
// shapes, a host is empty exactly when it has neither, its occupancy has
// moved exactly when it went empty (a host whose last VM leaves while a
// reservation remains keeps its occupancy, and a host that took a removed
// one's ID starts past it), a host is unavailable exactly when the ledger
// holds a claim on it and AppendFeasible never offers it, and a refused
// operation changes neither the VM count, the free total nor the used
// vector of the hosts it named. RemoveHost refuses a claimed host, and a
// restore with no claim is refused; a claim changes neither Empty nor
// Occupancy, and a subscriber sees one HostChanged when a claim flips a
// host's availability and none for a nested claim or restore.
func FuzzPoolOps(f *testing.F) {
	// A place/exit script, then every operation with each outcome.
	f.Add([]byte{0, 0, 3, 1, 0, 0, 0, 1, 7, 0, 2, 9, 1, 0, 1, 1, 0, 0, 0, 0, 15})
	f.Add([]byte{
		0, 1, 15, 0, 2, 6, 0, 1, 19, // places: 16 and 7 cores fit, 20 do not
		3, 2, 0, 3, 1, 0, 3, 3, 1, // migrations: no room, own host, accepted
		6, 1, 0, 7, 1, 0, 7, 1, 1, 8, 1, 0, // mark, clear, clear again, retire and re-add the top host
		2, 0, 4, 1, 0, 0, // exits: an unknown ID, a live VM
		4, 0, 2, 4, 0, 0, 5, 5, 0, 5, 3, 0, // add 2 and 0 hosts, remove an empty and an occupied one
	})
	// Reservations: one beside a VM outlives it, one on an empty host is
	// refused removal, one does not fit; then both are released and the
	// host is removed.
	f.Add([]byte{0, 0, 3, 9, 0, 4, 1, 0, 0, 9, 1, 1, 5, 1, 0, 9, 1, 19, 10, 0, 0, 10, 0, 0, 5, 1, 0})
	// Drain claims: a host withdrawn twice outlives its VM's exit and one
	// restore, so its removal is refused; the second restore frees it, a
	// third is refused, and the host is removed.
	f.Add([]byte{0, 0, 3, 11, 0, 0, 11, 0, 0, 1, 0, 0, 12, 0, 0, 5, 0, 0, 12, 0, 0, 12, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity := resources.Cores(16, 65536, 0)
		p := NewPool("fuzz", 4, capacity)
		var live []VMID
		marked := map[VMID]bool{}
		var held []*Reservation    // live reservations; r.host and r.shape are the ledger's
		claims := map[HostID]int{} // drain claims per host; a claimed host is never removed
		changed := 0               // HostChanged events published
		p.Subscribe(func(_ *Host, ev HostEvent) {
			if ev == HostChanged {
				changed++
			}
		})
		var feasible []*Host
		type occ struct {
			host  *Host
			occ   uint32
			empty bool
		}
		occs := map[HostID]occ{} // every host's occupancy before the operation
		retired := uint32(0)     // past every removed host's occupancy
		next := VMID(0)
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]%13, int(data[i+1]), int(data[i+2])
			if p.NumHosts() == 0 {
				op = 4 // only AddHosts applies to an empty pool
			}
			var h, src *Host
			if hosts := p.Hosts(); len(hosts) > 0 {
				h = hosts[a%len(hosts)]
			}
			clear(occs)
			for _, h := range p.Hosts() {
				occs[h.ID] = occ{h, h.Occupancy(), h.Empty()}
			}
			nvm, free, events, empties := p.NumVMs(), p.FreeTotal(), changed, p.EmptyHosts()
			var used, srcUsed resources.Vector
			var out bool
			if h != nil {
				used, out = h.Used(), h.Unavailable()
			}
			var err error
			switch op {
			case 0: // place, fitting or not
				next++
				vm := newVM(next, int64(b%20)+1)
				fits := h.Fits(vm.Shape)
				if err = p.Place(vm, h); (err == nil) != fits {
					t.Fatalf("op %d: Place of %s on host %d (free %s): err %v", i/3, vm.Shape, h.ID, h.Free(), err)
				}
				if err == nil {
					live = append(live, vm.ID)
				}
			case 1: // exit a live VM
				if len(live) == 0 {
					continue
				}
				k := b % len(live)
				if _, _, err = p.Exit(live[k]); err != nil {
					t.Fatalf("op %d: Exit of live vm %d: %v", i/3, live[k], err)
				}
				delete(marked, live[k])
				live = append(live[:k], live[k+1:]...)
			case 2: // exit an ID never placed
				if _, _, err = p.Exit(next + 1 + VMID(b)); err == nil {
					t.Fatalf("op %d: Exit of unknown vm accepted", i/3)
				}
			case 3: // migrate a live VM to h
				if len(live) == 0 {
					continue
				}
				id := live[b%len(live)]
				src = p.HostOf(id)
				srcUsed = src.Used()
				ok := src != h && h.Fits(src.VM(id).Shape)
				if _, err = p.Migrate(id, h); (err == nil) != ok {
					t.Fatalf("op %d: Migrate of vm %d from host %d to %d: err %v, want ok %v", i/3, id, src.ID, h.ID, err, ok)
				}
			case 4:
				p.AddHosts(b%3, capacity)
			case 5:
				removable := h.Empty() && claims[h.ID] == 0
				if err = p.RemoveHost(h.ID); (err == nil) != removable {
					t.Fatalf("op %d: RemoveHost of host %d with %d VMs and %d claims: err %v", i/3, h.ID, h.NumVMs(), claims[h.ID], err)
				}
			case 6, 7: // a policy marks the host's VMs, or clears their marks
				h.EachVM(func(vm *VM) {
					vm.Mark = op == 6
					marked[vm.ID] = op == 6
				})
			case 8: // retire the top host if it is empty, and take its ID again
				top := p.Hosts()[p.NumHosts()-1]
				if !top.Empty() || claims[top.ID] > 0 {
					continue
				}
				if err := p.RemoveHost(top.ID); err != nil {
					t.Fatalf("op %d: RemoveHost of empty top host %d: %v", i/3, top.ID, err)
				}
				p.AddHosts(1, capacity)
			case 9: // reserve on h, fitting or not
				shape := resources.Cores(int64(b%20)+1, 1024, 0)
				fits := h.Fits(shape)
				var r *Reservation
				if r, err = p.Reserve(h, shape); (err == nil) != fits {
					t.Fatalf("op %d: Reserve of %s on host %d (free %s): err %v", i/3, shape, h.ID, h.Free(), err)
				}
				if err == nil {
					held = append(held, r)
				}
			case 10: // release a live reservation, then once more
				if len(held) == 0 {
					continue
				}
				k := b % len(held)
				r := held[k]
				if err := p.Release(r); err != nil {
					t.Fatalf("op %d: Release of a live reservation on host %d: %v", i/3, r.host.ID, err)
				}
				held = append(held[:k], held[k+1:]...)
				vms, total, hostUsed := p.NumVMs(), p.FreeTotal(), r.host.Used()
				if p.Release(r) == nil || p.NumVMs() != vms || p.FreeTotal() != total || r.host.Used() != hostUsed {
					t.Fatalf("op %d: a second Release of one reservation was accepted or changed the pool", i/3)
				}
			case 11: // withdraw h, claimed or not
				if err = p.Withdraw(h.ID); err != nil {
					t.Fatalf("op %d: Withdraw of host %d under %d claims: %v", i/3, h.ID, claims[h.ID], err)
				}
				claims[h.ID]++
			case 12: // restore h, refused when no claim holds it
				if err = p.Restore(h.ID); (err == nil) != (claims[h.ID] > 0) {
					t.Fatalf("op %d: Restore of host %d under %d claims: err %v", i/3, h.ID, claims[h.ID], err)
				}
				if err == nil {
					claims[h.ID]--
				}
			}
			if op == 11 || op == 12 {
				flips := 0
				if h.Unavailable() != out {
					flips = 1
				}
				if changed-events != flips || h.Empty() != occs[h.ID].empty || p.EmptyHosts() != empties {
					t.Fatalf("op %d (%d): host %d unavailable %v -> %v published %d HostChanged; empty %v -> %v, empty hosts %d -> %d",
						i/3, op, h.ID, out, h.Unavailable(), changed-events, occs[h.ID].empty, h.Empty(), empties, p.EmptyHosts())
				}
			}
			if err != nil {
				if p.NumVMs() != nvm || p.FreeTotal() != free || h.Used() != used || h.Unavailable() != out {
					t.Fatalf("op %d: refused %v changed the pool: vms %d -> %d, free %s -> %s, host %d used %s -> %s",
						i/3, err, nvm, p.NumVMs(), free, p.FreeTotal(), h.ID, used, h.Used())
				}
				if src != nil && src.Used() != srcUsed {
					t.Fatalf("op %d: refused migration changed source host %d: used %s -> %s", i/3, src.ID, srcUsed, src.Used())
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d): %v", i/3, op, err)
			}
			if p.NumVMs() != len(live) {
				t.Fatalf("op %d: pool runs %d VMs, ledger %d", i/3, p.NumVMs(), len(live))
			}
			for _, id := range live {
				if vm := p.VM(id); vm.Mark != marked[id] {
					t.Fatalf("op %d: vm %d mark %v, the policy left it %v", i/3, id, vm.Mark, marked[id])
				}
			}
			feasible = p.AppendFeasible(feasible[:0], resources.Cores(1, 1024, 0))
			for _, h := range feasible {
				if claims[h.ID] > 0 {
					t.Fatalf("op %d (%d): AppendFeasible offers host %d under %d claims", i/3, op, h.ID, claims[h.ID])
				}
			}
			for _, h := range p.Hosts() {
				if h.Unavailable() != (claims[h.ID] > 0) {
					t.Fatalf("op %d (%d): host %d unavailable %v under %d ledger claims", i/3, op, h.ID, h.Unavailable(), claims[h.ID])
				}
				var sum resources.Vector
				h.EachVM(func(vm *VM) { sum = sum.Add(vm.Shape) })
				holds := 0
				for _, r := range held {
					if r.host == h {
						holds++
						sum = sum.Add(r.shape)
					}
				}
				if sum != h.Used() || h.Empty() != (h.NumVMs() == 0 && holds == 0) {
					t.Fatalf("op %d (%d): host %d used %s, empty %v; its %d VMs and %d reservations sum to %s", i/3, op, h.ID, h.Used(), h.Empty(), h.NumVMs(), holds, sum)
				}
			}
			for _, was := range occs {
				if p.Host(was.host.ID) != was.host {
					retired = max(retired, was.occ+1)
				}
			}
			for _, h := range p.Hosts() {
				was, ok := occs[h.ID]
				switch {
				case ok && was.host == h:
					want := was.occ
					if !was.empty && h.Empty() {
						want++
					}
					if h.Occupancy() != want {
						t.Fatalf("op %d (%d): host %d occupancy %d -> %d, empty %v -> %v", i/3, op, h.ID, was.occ, h.Occupancy(), was.empty, h.Empty())
					}
				case h.Occupancy() < retired:
					t.Fatalf("op %d (%d): new host %d starts at occupancy %d, a removed host reached %d", i/3, op, h.ID, h.Occupancy(), retired-1)
				}
			}
		}
	})
}
