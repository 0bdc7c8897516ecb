package scheduler_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// oneHost builds a machine of one 16-core host under pol and places VM 1,
// of the given lifetime, on it at time 0.
func oneHost(t *testing.T, pol scheduler.Policy, life time.Duration) (*sim.Machine, *cluster.Host) {
	t.Helper()
	m, err := sim.NewMachine(sim.Config{Policy: pol, Trace: &trace.Trace{
		PoolName: "one", Hosts: 1, HostCPU: 16000, HostMem: 16 * 4096, Horizon: 1000 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	return m, create(t, m, 1, life, 0)
}

// create places a 2-core VM of the given lifetime at at and returns its host.
func create(t *testing.T, m *sim.Machine, id cluster.VMID, life, at time.Duration) *cluster.Host {
	t.Helper()
	h, err := m.Create(trace.Record{ID: id, Arrival: at, Lifetime: life, Shape: resources.Cores(2, 2*4096, 0)}, at)
	if err != nil || h == nil {
		t.Fatalf("create vm %d at %v: host %v, err %v", id, at, h, err)
	}
	return h
}

// emptyByRelease empties the host of VM 1 at 30 minutes the way a defrag
// copy window can: a window is reserved on it, VM 1 is killed, and the
// window's release takes the last occupant without a policy hook.
func emptyByRelease(t *testing.T, m *sim.Machine, pol scheduler.Policy, h *cluster.Host) {
	t.Helper()
	now := 30 * time.Minute
	if err := m.Advance(now); err != nil {
		t.Fatal(err)
	}
	ctl := sim.NewControl(m.Pool(), pol, &sim.Result{})
	win, err := ctl.Reserve(resources.Cores(1, 4096, 0), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Kill(1, now); err != nil {
		t.Fatal(err)
	}
	if h.Empty() {
		t.Fatal("a host holding a copy window reads as empty")
	}
	if err := ctl.Release(win); err != nil || !h.Empty() {
		t.Fatalf("release of the copy window: %v; host empty %v", err, h.Empty())
	}
}

// levelScore returns pol's score on chain level li of a probe VM of the
// given lifetime, created at at, on h.
func levelScore(t *testing.T, pol scheduler.Policy, li int, h *cluster.Host, life, at time.Duration) float64 {
	t.Helper()
	probe := &cluster.VM{ID: 1 << 30, Shape: resources.Cores(1, 4096, 0), Created: at, TrueLifetime: life}
	scores, ok := scheduler.LevelScores(pol, nil, h, probe, at)
	if !ok || len(scores) <= li {
		t.Fatalf("%s prices no level %d: %v", pol.Name(), li, scores)
	}
	return scores[li]
}

// TestLAVAReservationEmptiedHostReopens: a host that a copy window's
// release empties reads as empty to LAVA, and the next VM placed there
// opens it with its own class and deadline, not the ones of the host's
// previous occupancy (LC2, due at 11 h).
func TestLAVAReservationEmptiedHostReopens(t *testing.T) {
	pol := scheduler.NewLAVA(model.Oracle{}, time.Minute)
	m, h := oneHost(t, pol, 2*time.Hour)
	emptyByRelease(t, m, pol, h)
	class := func(life, at time.Duration) float64 { return levelScore(t, pol, 0, h, life, at) }
	if got := class(5*time.Hour, m.Now()); got != 6 {
		t.Fatalf("emptied host: an LC2 VM's class score is %v, want 6 (empty)", got)
	}

	opened := 2 * time.Hour
	create(t, m, 2, 50*time.Hour, opened) // LC3
	if lc3, lc2 := class(50*time.Hour, opened), class(5*time.Hour, opened); lc3 != 4 || lc2 != 5 {
		t.Fatalf("reopened by an LC3 VM: LC3 scores %v, LC2 %v; want 4 (open, same class), 5 (occupied)", lc3, lc2)
	}
	deadline := opened + simtime.LC3.Deadline()
	if err := m.Advance(deadline); err != nil {
		t.Fatal(err)
	}
	if got := class(50*time.Hour, deadline); got != 4 {
		t.Fatalf("at its deadline %v the host moved: LC3 scores %v, want 4", deadline, got)
	}
	past := deadline + simtime.TickEvery
	if err := m.Advance(past); err != nil {
		t.Fatal(err)
	}
	if lc4, lc3 := class(500*time.Hour, past), class(50*time.Hour, past); lc4 != 4 || lc3 != 5 {
		t.Fatalf("past its deadline %v: LC4 scores %v, LC3 %v; want the host promoted to LC4 (4, 5)", deadline, lc4, lc3)
	}
}

// TestEpochReservationEmptiedHostResets: nilas-epoch's running max of a
// host's exits starts afresh with the host's next occupancy whether the
// host was emptied by the exit hook or by a copy window's release. A host
// that ran a 100 h VM and now runs a 1 h one scores a 50 h VM's temporal
// cost 8, not the 0 the stale 100 h estimate gives.
func TestEpochReservationEmptiedHostResets(t *testing.T) {
	for _, hook := range []bool{true, false} {
		pol := scheduler.NewNILASEpoch(model.Oracle{}, time.Minute, scheduler.DefaultEpoch)
		m, h := oneHost(t, pol, 100*time.Hour)
		if hook {
			if err := m.Advance(30 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := sim.NewControl(m.Pool(), pol, &sim.Result{}).Kill(1, 30*time.Minute); err != nil {
				t.Fatal(err)
			}
		} else {
			emptyByRelease(t, m, pol, h)
		}
		create(t, m, 2, time.Hour, time.Hour)
		if got := levelScore(t, pol, 0, h, 50*time.Hour, time.Hour); got != 8 {
			t.Fatalf("emptied through the hook %v: a 50 h VM's temporal cost is %v, want 8", hook, got)
		}
	}
}

// TestLAVAWindowIsNotResidual: a copy window on a host that starts
// recycling joins no residual set, so LAVA demotes the host when its last
// residual VM exits, with the window still held, and no hook has to follow.
func TestLAVAWindowIsNotResidual(t *testing.T) {
	pol := scheduler.NewLAVA(model.Oracle{}, time.Minute)
	m, h := oneHost(t, pol, 50*time.Hour) // VM 1 opens the host as LC3
	if _, err := sim.NewControl(m.Pool(), pol, &sim.Result{}).Reserve(resources.Cores(5, 5*4096, 0), h); err != nil {
		t.Fatal(err)
	}
	// 2 + 5 + 4×2 of 16 cores: VM 5 takes the host past 90 %.
	for id := cluster.VMID(2); id <= 5; id++ {
		create(t, m, id, 50*time.Hour, 0)
	}
	if v := scheduler.HostOf(pol, h); v.State != "recycling" || v.Class != simtime.LC3 || scheduler.Residuals(h) != 5 {
		t.Errorf("filled host: %+v with %d residual VMs, want recycling LC3 with 5", v, scheduler.Residuals(h))
	}
	at := time.Hour
	for id := cluster.VMID(1); id <= 5; id++ {
		if ok, err := m.Exit(id, at); !ok || err != nil {
			t.Fatalf("exit of vm %d: %v %v", id, ok, err)
		}
	}
	want := scheduler.HostView{State: "recycling", Class: simtime.LC2, Deadline: at + simtime.LC2.Deadline()}
	if v := scheduler.HostOf(pol, h); h.Empty() || v != want {
		t.Fatalf("last residual VM gone, window held: host empty %v, %+v; want %+v", h.Empty(), v, want)
	}
}

// hostsRun drives a NILAS or LAVA policy over a pool the way a simulation
// does: placements scheduled, placed and told to the policy and natural
// exits as sim.Machine makes them, kills, migrations and copy windows
// through one sim.Control, and ticks. Beside it, it keeps its
// own model of what the policy keeps per host (§4.3 for LAVA, the running
// max of exits for the epoch level) and of LAVA's residual sets, moved by
// the rules alone, so check can hold the policy's slab to it.
type hostsRun struct {
	pol         scheduler.Policy
	lava, epoch bool
	p           *cluster.Pool
	ctl         *sim.Control
	now         time.Duration
	live        []cluster.VMID         // VMs the policy placed, still running
	res         []*cluster.Reservation // live copy windows
	next        cluster.VMID

	ref      map[*cluster.Host]*scheduler.HostView // the model's slot of each occupied host
	residual map[*cluster.VM]bool
}

// fuzzLifetimes are the lifetimes a hostsRun script picks from: every
// LAVA class, with the 2 h, 1 h and 100 h VMs of the window-emptied
// sequences of TestLAVAReservationEmptiedHostReopens and
// TestEpochReservationEmptiedHostResets.
var fuzzLifetimes = []time.Duration{30 * time.Minute, 2 * time.Hour, 50 * time.Hour, 400 * time.Hour, 100 * time.Hour, time.Hour}

// hostsPolicies are the policies that keep a host slab, by the index a
// script's first byte picks.
var hostsPolicies = []func() scheduler.Policy{
	func() scheduler.Policy { return scheduler.NewLAVA(model.Oracle{}, time.Minute) },
	func() scheduler.Policy {
		return scheduler.NewLAVAEpoch(model.Oracle{}, time.Minute, scheduler.DefaultEpoch)
	},
	func() scheduler.Policy {
		return scheduler.NewNILASEpoch(model.Oracle{}, time.Minute, scheduler.DefaultEpoch)
	},
}

func newHostsRun(pol scheduler.Policy, hosts int) *hostsRun {
	p := cluster.NewPool("hosts", hosts, resources.Cores(16, 16*4096, 0))
	return &hostsRun{
		pol: pol, lava: pol.Name() != "nilas-epoch", epoch: pol.Name() != "lava",
		p: p, ctl: sim.NewControl(p, pol, &sim.Result{}),
		ref: map[*cluster.Host]*scheduler.HostView{}, residual: map[*cluster.VM]bool{},
	}
}

// host returns the pool's k-th host, counting round, or nil on an empty pool.
func (r *hostsRun) host(k int) *cluster.Host {
	if hs := r.p.Hosts(); len(hs) > 0 {
		return hs[k%len(hs)]
	}
	return nil
}

// remaining is the policy's prediction of the VM's remaining lifetime.
func (r *hostsRun) remaining(vm *cluster.VM) time.Duration {
	return model.Oracle{}.PredictRemaining(vm, vm.Uptime(r.now))
}

// markAll makes every VM on the host residual in the model.
func (r *hostsRun) markAll(h *cluster.Host) {
	h.EachVM(func(vm *cluster.VM) { r.residual[vm] = true })
}

// placed moves the model for a VM the policy heard join h.
func (r *hostsRun) placed(h *cluster.Host, vm *cluster.VM) {
	delete(r.residual, vm)
	m := r.ref[h]
	if m == nil {
		m = &scheduler.HostView{State: "empty"}
		r.ref[h] = m
	}
	if r.epoch {
		m.Exit = max(m.Exit, r.now+r.remaining(vm))
	}
	if !r.lava {
		return
	}
	if m.State == "empty" {
		m.State, m.Class = "open", simtime.ClassOf(r.remaining(vm))
		m.Deadline = r.now + m.Class.Deadline()
	}
	if m.State == "open" && resources.MaxUtilization(h.Used(), h.Capacity) >= 0.9 {
		m.State = "recycling"
		r.markAll(h)
	}
}

// exited moves the model for a VM the policy heard leave h.
func (r *hostsRun) exited(h *cluster.Host, vm *cluster.VM) {
	delete(r.residual, vm)
	m := r.ref[h]
	if h.Empty() || m == nil || m.State != "recycling" {
		return
	}
	left := false
	h.EachVM(func(vm *cluster.VM) { left = left || r.residual[vm] })
	if !left {
		m.Class = m.Class.Dec()
		m.Deadline = r.now + m.Class.Deadline()
		r.markAll(h)
	}
}

// op applies one scripted operation; a, b pick its VM, host and size.
func (r *hostsRun) op(t *testing.T, op, a, b int) {
	t.Helper()
	r.now += time.Minute
	pick := func(ids []cluster.VMID) (int, bool) {
		if len(ids) == 0 {
			return 0, false
		}
		return a % len(ids), true
	}
	switch op {
	case 0: // place
		r.next++
		cores := int64(1 + b%12)
		vm := &cluster.VM{ID: r.next, Shape: resources.Cores(cores, cores*4096, 0), Created: r.now, TrueLifetime: fuzzLifetimes[a%len(fuzzLifetimes)]}
		h, err := r.pol.Schedule(r.p, vm, r.now)
		if err != nil {
			return
		}
		if err := r.p.Place(vm, h); err != nil {
			t.Fatal(err)
		}
		r.pol.OnPlaced(r.p, h, vm, r.now)
		r.placed(h, vm)
		r.live = append(r.live, vm.ID)
	case 1, 2: // a natural exit, a kill
		k, ok := pick(r.live)
		if !ok {
			return
		}
		id := r.live[k]
		h, vm := r.p.HostOf(id), r.p.VM(id)
		if op == 1 {
			if _, _, err := r.p.Exit(id); err != nil {
				t.Fatal(err)
			}
			r.pol.OnExited(r.p, h, vm, r.now)
		} else if err := r.ctl.Kill(id, r.now); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live[:k], r.live[k+1:]...)
		r.exited(h, vm)
	case 3: // migrate, accepted or refused
		k, ok := pick(r.live)
		dst := r.host(b)
		if !ok || dst == nil {
			return
		}
		id := r.live[k]
		src, vm := r.p.HostOf(id), r.p.VM(id)
		if r.ctl.Migrate(id, dst, r.now) == nil {
			r.exited(src, vm)
			r.placed(dst, vm)
		}
	case 4: // reserve a copy window
		if h := r.host(a); h != nil {
			cores := int64(1 + b%8)
			if win, err := r.ctl.Reserve(resources.Cores(cores, cores*4096, 0), h); err == nil {
				r.res = append(r.res, win)
			}
		}
	case 5: // end one: its copy is over
		if len(r.res) == 0 {
			return
		}
		k := a % len(r.res)
		if err := r.ctl.Release(r.res[k]); err != nil {
			t.Fatal(err)
		}
		r.res = append(r.res[:k], r.res[k+1:]...)
	case 6: // tick, after up to 42 h
		r.now += time.Duration(b) * 10 * time.Minute
		r.pol.OnTick(r.p, r.now)
		for _, h := range r.p.Hosts() {
			if m := r.ref[h]; r.lava && m != nil && m.State != "empty" && r.now > m.Deadline {
				m.Class = m.Class.Inc()
				m.Deadline = r.now + m.Class.Deadline()
				r.markAll(h)
			}
		}
	case 7:
		r.p.AddHosts(1+b%2, resources.Cores(16, 16*4096, 0))
	case 8: // retire the top host if it is empty
		if h := r.host(r.p.NumHosts() - 1); h != nil && h.Empty() {
			if err := r.p.RemoveHost(h.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A host that went empty, hook or no hook, starts its next occupancy
	// from nothing.
	for h := range r.ref {
		if h.Empty() {
			delete(r.ref, h)
		}
	}
}

// check holds the policy's slab to the model, host by host and VM by VM,
// and to the invariants that follow from LAVA's rules whatever the history:
// an empty host reads as empty, and a host that runs a VM (a copy window
// is none) is open or recycling, with a valid class and a deadline. The
// pool's own invariants hold too.
func (r *hostsRun) check() error {
	if err := r.p.CheckInvariants(); err != nil {
		return err
	}
	zero := scheduler.HostView{State: "empty"}
	for _, h := range r.p.Hosts() {
		got, want := scheduler.HostOf(r.pol, h), zero
		if m := r.ref[h]; m != nil {
			want = *m
		}
		if got != want {
			return fmt.Errorf("host %d (%d VMs): policy keeps %+v, want %+v", h.ID, h.NumVMs(), got, want)
		}
		if h.Empty() && got != zero {
			return fmt.Errorf("empty host %d reads %+v", h.ID, got)
		}
		for _, vm := range h.VMs() {
			if vm.Mark != r.residual[vm] {
				return fmt.Errorf("host %d vm %d: residual %v, want %v", h.ID, vm.ID, vm.Mark, r.residual[vm])
			}
		}
		if r.lava && h.NumVMs() > 0 && (got.State == "empty" || !got.Class.Valid() || got.Deadline <= 0) {
			return fmt.Errorf("host %d runs a placed VM in %+v", h.ID, got)
		}
	}
	return nil
}

// FuzzLAVAHosts runs scripts of placements, natural exits, kills,
// migrations, copy windows and their releases, ticks, added hosts and
// removals of the top host against lava, lava-epoch and nilas-epoch (the
// first byte picks), three bytes an operation, and after every operation
// holds the policy's host slab and the VMs' residual marks to hostsRun's
// model and the pool to its invariants.
func FuzzLAVAHosts(f *testing.F) {
	// The window-emptied sequences: a host opened by a 2 h VM (lava) or a
	// 100 h one (nilas-epoch) holds a copy window, its VM is killed and the
	// window released; then a 400 h VM and a 2 h one
	// (lava) or a 1 h VM and a 50 h one (nilas-epoch) are placed.
	f.Add([]byte{0, 0, 1, 1, 4, 0, 0, 2, 0, 0, 5, 0, 0, 0, 3, 1, 0, 1, 1})
	f.Add([]byte{2, 0, 4, 1, 4, 0, 0, 2, 0, 0, 5, 0, 0, 0, 5, 1, 0, 2, 1})
	// Every operation: places to recycling, a refused and an accepted
	// migration, copy windows reserved and released, a tick past LC1's deadline,
	// hosts added and the top one retired.
	f.Add([]byte{1,
		0, 3, 11, 0, 3, 3, 0, 0, 5, 0, 1, 9, 3, 0, 0, 3, 2, 2,
		4, 1, 3, 4, 2, 1, 5, 0, 0, 5, 0, 1, 6, 0, 9,
		1, 0, 0, 2, 0, 0, 7, 0, 1, 8, 0, 0, 8, 0, 0, 6, 0, 200,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := newHostsRun(hostsPolicies[int(data[0])%len(hostsPolicies)](), 3)
		data = data[1:]
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := int(data[i]) % 9
			r.op(t, op, int(data[i+1]), int(data[i+2]))
			if err := r.check(); err != nil {
				t.Fatalf("%s, op %d (%d): %v", r.pol.Name(), i/3, op, err)
			}
		}
	})
}

// TestLAVAClassInvariants checks LAVA's host-state invariants under random
// operation: an empty host is in the empty state, a host running a VM LAVA
// placed has a valid class and a deadline, and residual sets never reference
// departed VMs. Exits come as the exit hook and as kills through a
// sim.Control, and copy windows come and go, whose release calls no hook,
// so the invariants cover a host that goes empty without LAVA hearing of
// it.
func TestLAVAClassInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newHostsRun(scheduler.NewLAVA(model.Oracle{}, 0), 4)
		for step := 0; step < 100; step++ {
			r.op(t, 6, 0, rng.Intn(12)) // tick after up to 2 h
			switch x := rng.Float64(); {
			case x < 0.5 || len(r.live) == 0:
				r.op(t, 0, rng.Intn(4), rng.Intn(6)) // place 1-6 cores, up to 400 h
			case x < 0.65:
				r.op(t, 1, rng.Intn(1<<16), 0)
			case x < 0.75:
				r.op(t, 2, rng.Intn(1<<16), 0)
			case x < 0.9:
				r.op(t, 4, rng.Intn(4), rng.Intn(8))
			default:
				r.op(t, 5, rng.Intn(1<<16), rng.Intn(2))
			}
			if err := r.check(); err != nil {
				t.Log(err)
				return false
			}
			for _, h := range r.p.Hosts() {
				v := scheduler.HostOf(r.pol, h)
				if h.Empty() {
					if v.State != "empty" {
						t.Logf("empty host %d in state %v", h.ID, v.State)
						return false
					}
					continue
				}
				if h.NumVMs() == 0 {
					continue // copy windows only: LAVA has placed nothing here
				}
				if !v.Class.Valid() {
					t.Logf("non-empty host %d has invalid class %v", h.ID, v.Class)
					return false
				}
				if v.State == "recycling" && scheduler.Residuals(h) > h.NumVMs() {
					t.Logf("host %d residuals %d > vms %d", h.ID, scheduler.Residuals(h), h.NumVMs())
					return false
				}
				if v.Deadline <= 0 {
					t.Logf("host %d has no deadline", h.ID)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLAVAMigrateRefusedKeepsResidual: a migration the pool refuses leaves
// LAVA's source host as it was: recycling, with the VM in its residual set.
func TestLAVAMigrateRefusedKeepsResidual(t *testing.T) {
	r := newHostsRun(scheduler.NewLAVA(model.Oracle{}, 0), 2)
	r.op(t, 0, 2, 9)  // a 50 h VM of 10 cores opens host 0 as LC3
	r.op(t, 0, 2, 5)  // a second one of 6 cores fills it: recycling
	r.op(t, 0, 2, 11) // a 12-core VM opens host 1, with no room for 10 more cores
	src, dst := r.p.Host(0), r.p.Host(1)
	before := scheduler.HostOf(r.pol, src)
	if before.State != "recycling" || r.p.HostOf(1) != src || r.p.HostOf(3) != dst {
		t.Fatalf("setup: host 0 %+v, vm 1 on %v, vm 3 on %v", before, r.p.HostOf(1), r.p.HostOf(3))
	}
	if err := r.ctl.Migrate(1, dst, r.now); err == nil {
		t.Fatal("migration to a host without room must fail")
	}
	if after := scheduler.HostOf(r.pol, src); after != before || scheduler.Residuals(src) != 2 || !src.VM(1).Mark {
		t.Fatalf("after a refused move: host 0 %+v -> %+v, residual count %d, vm 1 residual %v; want unchanged, 2, true",
			before, after, scheduler.Residuals(src), src.VM(1).Mark)
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

// TestLAVASlabCatchesCorruption corrupts the residual sets of a LAVA run
// one way per case — the rows that held the pool's residual count and flags
// before the sets moved into the policy — and requires hostsRun.check to
// report it.
func TestLAVASlabCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *hostsRun)
	}{
		{"residual count", func(r *hostsRun) { r.p.Host(0).VMs()[0].Mark = false }},
		{"residual flag", func(r *hostsRun) { r.p.Host(1).VMs()[0].Mark = true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newHostsRun(scheduler.NewLAVA(model.Oracle{}, 0), 2)
			r.op(t, 0, 2, 9)  // host 0 opens as LC3
			r.op(t, 0, 2, 5)  // and recycles
			r.op(t, 0, 1, 11) // host 1 opens as LC2
			if err := r.check(); err != nil {
				t.Fatal(err)
			}
			if a, b := scheduler.HostOf(r.pol, r.p.Host(0)), scheduler.HostOf(r.pol, r.p.Host(1)); a.State != "recycling" || b.State != "open" {
				t.Fatalf("setup: host 0 %+v, host 1 %+v", a, b)
			}
			c.corrupt(r)
			if err := r.check(); err == nil {
				t.Fatal("check accepted the corrupted residual sets")
			}
		})
	}
}
