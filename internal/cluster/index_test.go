package cluster

import (
	"math/rand"
	"testing"

	"lava/internal/resources"
)

// naiveFeasible is the brute-force reference for AppendFeasible.
func naiveFeasible(p *Pool, shape resources.Vector) []*Host {
	var out []*Host
	for _, h := range p.Hosts() {
		if !h.Unavailable && h.Fits(shape) {
			out = append(out, h)
		}
	}
	return out
}

func sameHosts(t *testing.T, got, want []*Host) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("feasible sets differ: got %d hosts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("feasible[%d] = host %d, want host %d", i, got[i].ID, want[i].ID)
		}
	}
}

// TestAppendFeasibleMatchesScan drives a pool through a random walk over
// every mutation that moves the empty-host count — place, exit, migrate,
// AddHosts, RemoveHost (of the highest ID or of one in the middle) and
// Clone — plus availability flips. After every step it checks EmptyHosts,
// AppendFeasible and the set of non-empty hosts against scans written here,
// then CheckInvariants.
func TestAppendFeasibleMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	capacity := resources.Cores(32, 131072, 500)
	p := NewPool("ix", 37, capacity)
	shapes := []resources.Vector{
		resources.Cores(1, 4096, 0),
		resources.Cores(8, 32768, 100),
		resources.Cores(16, 65536, 0),
		resources.Cores(32, 131072, 500), // whole-host
		resources.Cores(48, 16384, 0),    // never fits
	}
	var buf []*Host
	var id VMID
	var live []VMID // the test's own ledger of running VMs

	check := func(step int) {
		t.Helper()
		occupied := map[HostID]bool{}
		for _, vid := range live {
			occupied[p.HostOf(vid).ID] = true
		}
		empty := 0
		for _, h := range p.Hosts() {
			if h.Empty() == occupied[h.ID] {
				t.Fatalf("step %d: host %d Empty() = %v, but the ledger says occupied = %v", step, h.ID, h.Empty(), occupied[h.ID])
			}
			if !occupied[h.ID] {
				empty++
			}
		}
		if got := p.EmptyHosts(); got != empty {
			t.Fatalf("step %d: EmptyHosts = %d, scan %d", step, got, empty)
		}
		for _, shape := range shapes {
			buf = p.AppendFeasible(buf[:0], shape)
			sameHosts(t, buf, naiveFeasible(p, shape))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	check(-1)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(20); {
		case op < 9: // place
			shape := shapes[rng.Intn(3)]
			cands := naiveFeasible(p, shape)
			if len(cands) == 0 {
				continue
			}
			id++
			if err := p.Place(&VM{ID: id, Shape: shape}, cands[rng.Intn(len(cands))]); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 15: // exit
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			if _, _, err := p.Exit(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case op < 17: // migrate
			if len(live) == 0 {
				continue
			}
			vid := live[rng.Intn(len(live))]
			src := p.HostOf(vid)
			var dst []*Host
			for _, h := range naiveFeasible(p, src.VM(vid).Shape) {
				if h != src {
					dst = append(dst, h)
				}
			}
			if len(dst) == 0 {
				continue
			}
			if _, err := p.Migrate(vid, dst[rng.Intn(len(dst))]); err != nil {
				t.Fatal(err)
			}
		case op < 18: // toggle availability
			p.Hosts()[rng.Intn(p.NumHosts())].Unavailable = rng.Intn(2) == 0
		case op < 19: // grow, or retire an empty host: the highest ID or a middle one
			if rng.Intn(2) == 0 {
				p.AddHosts(1+rng.Intn(2), capacity)
				break
			}
			hosts := p.Hosts()
			victim := hosts[len(hosts)-1]
			if rng.Intn(2) == 0 {
				victim = hosts[rng.Intn(len(hosts)-1)]
			}
			if !victim.Empty() || len(hosts) < 8 {
				continue
			}
			if err := p.RemoveHost(victim.ID); err != nil {
				t.Fatal(err)
			}
		default: // continue the walk on a deep copy
			p = p.Clone()
		}
		check(step)
	}
}

// TestForEachNonEmpty checks the non-empty sweep LAVA's deadline check runs
// (every host, skipping empty ones) and the empty-host counter against a
// hand-placed scatter of VMs.
func TestForEachNonEmpty(t *testing.T) {
	p := NewPool("ne", 40, resources.Cores(8, 32768, 0))
	// Occupy a scatter of hosts, including the first and the last.
	for i, hid := range []HostID{0, 15, 16, 39} {
		vm := &VM{ID: VMID(i + 1), Shape: resources.Cores(1, 1024, 0)}
		if err := p.Place(vm, p.Host(hid)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []HostID
	for _, h := range p.Hosts() {
		if !h.Empty() {
			seen = append(seen, h.ID)
		}
	}
	want := []HostID{0, 15, 16, 39}
	if len(seen) != len(want) {
		t.Fatalf("non-empty hosts = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("non-empty hosts = %v, want %v", seen, want)
		}
	}
	if got := p.EmptyHosts(); got != 36 {
		t.Fatalf("EmptyHosts = %d, want 36", got)
	}
	// Drain one and re-check.
	if _, _, err := p.Exit(2); err != nil { // vm 2 was on host 15
		t.Fatal(err)
	}
	if got := p.EmptyHosts(); got != 37 {
		t.Fatalf("EmptyHosts after exit = %d, want 37", got)
	}
}

// TestCloneRebuildsIndex verifies a cloned pool answers feasibility queries
// independently of the original.
func TestCloneRebuildsIndex(t *testing.T) {
	p := NewPool("cl", 8, resources.Cores(4, 16384, 0))
	vm := &VM{ID: 1, Shape: resources.Cores(4, 16384, 0)}
	if err := p.Place(vm, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if _, _, err := p.Exit(1); err != nil {
		t.Fatal(err)
	}
	// Original: host 0 free again; clone: host 0 still full.
	full := resources.Cores(4, 16384, 0)
	if got := len(p.AppendFeasible(nil, full)); got != 8 {
		t.Fatalf("original feasible = %d, want 8", got)
	}
	if got := len(c.AppendFeasible(nil, full)); got != 7 {
		t.Fatalf("clone feasible = %d, want 7", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
