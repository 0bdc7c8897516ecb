package defrag

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// newPool builds an n-host pool and the Control an engine injects through,
// whose policy picks migration targets best-fit.
func newPool(n int) (*cluster.Pool, *sim.Control) {
	p := cluster.NewPool("t", n, resources.Cores(32, 131072, 0))
	return p, sim.NewControl(p, scheduler.NewBestFit(), nil)
}

func mkVM(id cluster.VMID, cores int64, created, lifetime time.Duration) *cluster.VM {
	return &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: created, TrueLifetime: lifetime}
}

func TestEngineDrainsHost(t *testing.T) {
	p, ctl := newPool(4)
	e := New(Config{
		Pred:          model.Oracle{},
		Threshold:     0.9, // always trigger (empty frac will be < 0.9 once hosts fill)
		HostsPerRound: 1, CheckEvery: time.Hour,
	})
	// Occupy three hosts so the empty fraction (1/4) is under threshold.
	for i := 0; i < 3; i++ {
		vm := mkVM(cluster.VMID(i+1), 4, 0, 1000*time.Hour)
		if err := p.Place(vm, p.Host(cluster.HostID(i))); err != nil {
			t.Fatal(err)
		}
	}
	e.Inject(ctl, time.Hour)
	if e.Stats.Rounds != 1 || e.Stats.Planned == 0 {
		t.Fatalf("no defrag triggered: %+v", e.Stats)
	}
	// The migration is in flight; complete it.
	e.Inject(ctl, time.Hour+21*time.Minute)
	if e.Stats.Performed == 0 {
		t.Fatalf("no migration performed: %+v", e.Stats)
	}
	// One further tick releases the freed host.
	e.Inject(ctl, time.Hour+25*time.Minute)
	if e.Stats.HostsFreed != 1 {
		t.Fatalf("hosts freed = %d, want 1 (stats %+v)", e.Stats.HostsFreed, e.Stats)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h := p.HostOf(1); h == nil || h.ID == 0 {
		t.Fatalf("vm 1 on host %v, want migrated off drained host 0", h)
	}
	if p.Host(0).Unavailable {
		t.Fatal("freed host 0 still out of service")
	}
}

func TestMigrationSavedByNaturalExit(t *testing.T) {
	p, ctl := newPool(3)
	e := New(Config{
		Pred:      model.Oracle{},
		Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour,
	})
	// Host 0 has four VMs: three long, one exiting very soon. With three
	// migration slots, the long VMs migrate first (even in trace order they
	// are first by ID) and the short one exits while waiting.
	for id := cluster.VMID(1); id <= 3; id++ {
		if err := p.Place(mkVM(id, 4, 0, 1000*time.Hour), p.Host(0)); err != nil {
			t.Fatal(err)
		}
	}
	short := mkVM(4, 4, 0, 90*time.Minute)
	if err := p.Place(short, p.Host(0)); err != nil {
		t.Fatal(err)
	}

	e.Inject(ctl, time.Hour) // trigger; starts migrating VMs 1-3
	if e.Stats.Planned != 4 || e.Stats.Performed != 3 {
		t.Fatalf("stats after trigger: %+v", e.Stats)
	}
	// VM 4 exits naturally at 90m, before its migration starts.
	if _, _, err := p.Exit(4); err != nil {
		t.Fatal(err)
	}
	e.Inject(ctl, time.Hour+21*time.Minute) // completes VMs 1-3, reaps VM 4
	if e.Stats.Saved != 1 {
		t.Fatalf("saved = %d, want 1 (stats %+v)", e.Stats.Saved, e.Stats)
	}
	if e.Stats.Performed != 3 {
		t.Fatalf("performed = %d, want 3", e.Stats.Performed)
	}
}

func TestLARSOrdersLongestFirst(t *testing.T) {
	p, ctl := newPool(3)
	e := New(Config{
		Strategy:  OrderLARS,
		Pred:      model.Oracle{},
		Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour,
	})
	// VM 1 is short, VMs 2-4 long: LARS must migrate the long ones first,
	// longest first, despite the lower ID of VM 1.
	for id, lt := range []time.Duration{2 * time.Hour, 1000 * time.Hour, 500 * time.Hour, 800 * time.Hour} {
		if err := p.Place(mkVM(cluster.VMID(id+1), 4, 0, lt), p.Host(0)); err != nil {
			t.Fatal(err)
		}
	}
	e.Inject(ctl, time.Hour)
	if len(e.inflight) != 3 || e.inflight[0].vmID != 2 || e.inflight[1].vmID != 4 || e.inflight[2].vmID != 3 {
		t.Fatalf("LARS migrated wrong VMs first: %+v", e.inflight)
	}
}

// countingPred counts its predictions.
type countingPred struct {
	model.Predictor
	calls int
}

func (c *countingPred) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	c.calls++
	return c.Predictor.PredictRemaining(vm, uptime)
}

// TestLARSPredictsEachVMOnce: ordering a drained host's VMs asks the model
// once per VM, not once per comparison, and still orders by predicted
// remaining lifetime, longest first, ties by ID.
func TestLARSPredictsEachVMOnce(t *testing.T) {
	for _, strategy := range []Strategy{OrderTrace, OrderLARS} {
		p, ctl := newPool(4)
		pred := &countingPred{Predictor: model.Oracle{}}
		e := New(Config{
			Strategy: strategy, Pred: pred,
			Threshold: 0.99, HostsPerRound: 2, CheckEvery: time.Hour,
		})
		lifetimes := [][]time.Duration{
			{3 * time.Hour, 50 * time.Hour, 3 * time.Hour, 9 * time.Hour, 50 * time.Hour},
			{7 * time.Hour, 2 * time.Hour, 7 * time.Hour},
		}
		id := cluster.VMID(1)
		for h, lts := range lifetimes {
			for _, lt := range lts {
				if err := p.Place(mkVM(id, 2, 0, lt), p.Host(cluster.HostID(h))); err != nil {
					t.Fatal(err)
				}
				id++
			}
		}
		e.Inject(ctl, time.Hour)
		if len(e.Plan) != 2 {
			t.Fatalf("%v: %d hosts drained, want 2", strategy, len(e.Plan))
		}
		want := map[Strategy][][]cluster.VMID{
			OrderTrace: {{6, 7, 8}, {1, 2, 3, 4, 5}},
			OrderLARS:  {{6, 8, 7}, {2, 5, 4, 1, 3}},
		}[strategy]
		vms := 0
		for b, batch := range e.Plan {
			vms += len(batch.VMs)
			for i, vm := range batch.VMs {
				if vm.ID != want[b][i] {
					t.Fatalf("%v: batch %d (host %d) order %+v, want IDs %v", strategy, b, batch.Host, batch.VMs, want[b])
				}
			}
		}
		if pred.calls != vms {
			t.Fatalf("%v: %d model calls for %d VMs on drained hosts", strategy, pred.calls, vms)
		}
	}
}

func TestConcurrencyLimit(t *testing.T) {
	p, ctl := newPool(4)
	e := New(Config{
		Pred:      model.Oracle{},
		Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour,
	})
	for i := 0; i < 6; i++ {
		if err := p.Place(mkVM(cluster.VMID(i+1), 4, 0, 1000*time.Hour), p.Host(0)); err != nil {
			t.Fatal(err)
		}
	}
	e.Inject(ctl, time.Hour)
	if len(e.inflight) != 3 {
		t.Fatalf("in-flight = %d, want 3 (batch limit)", len(e.inflight))
	}
	if e.Stats.Performed != 3 {
		t.Fatalf("performed = %d, want 3", e.Stats.Performed)
	}
}

// TestLARSReducesMigrationsEndToEnd is the Table 2 shape check: on the same
// trace, LARS must perform no more migrations than trace-order, with oracle
// lifetimes (§6.3 runs this experiment with oracle lifetimes too).
func TestLARSReducesMigrationsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration study")
	}
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "defrag-e2e", Zone: "z1", Hosts: 24, TargetUtil: 0.6,
		Duration: 6 * simtime.Day, Prefill: 10 * simtime.Day, Seed: 17, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record the defragmentation plan from one live run, then replay the
	// identical plan under both orderings — the paper's Table 2
	// methodology (§5.1), which isolates the ordering effect from
	// trigger-feedback noise.
	eng := New(Config{
		Strategy:  OrderTrace,
		Pred:      model.Oracle{},
		Threshold: 0.5, HostsPerRound: 8, CheckEvery: 2 * time.Hour,
	})
	if _, err := sim.Run(sim.Config{
		Trace: tr, Policy: scheduler.NewWasteMin(),
		Injectors: []sim.Injector{eng},
	}); err != nil {
		t.Fatal(err)
	}
	if len(eng.Plan) == 0 {
		t.Fatal("defrag never triggered; test workload too empty")
	}
	base := ReplayPlan(eng.Plan, OrderTrace)
	lars := ReplayPlan(eng.Plan, OrderLARS)
	t.Logf("baseline: %+v", base)
	t.Logf("lars:     %+v", lars)
	if base.Performed == 0 {
		t.Fatal("no migrations performed in the baseline replay")
	}
	if lars.Performed > base.Performed {
		t.Errorf("LARS performed %d > baseline %d migrations", lars.Performed, base.Performed)
	}
	if lars.Saved < base.Saved {
		t.Errorf("LARS saved %d < baseline %d", lars.Saved, base.Saved)
	}
}

// TestTracedDefragDeterministic: a traced run of the Threshold-0.95
// geometry records every drain as a KindWithdraw and every freed host as a
// KindRestore decision, restores the hosts freed at one tick in ascending
// host ID, and writes the same bytes on every run.
func TestTracedDefragDeterministic(t *testing.T) {
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "defrag-traced", Zone: "z1", Hosts: 24, TargetUtil: 0.6,
		Duration: 3 * simtime.Day, Prefill: 4 * simtime.Day, Seed: 17, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, []ptrace.Decision, *Engine) {
		var out bytes.Buffer
		rec := ptrace.New(ptrace.Options{Out: &out})
		pol := scheduler.NewLAVA(model.Oracle{}, time.Minute)
		eng := New(Config{
			Strategy: OrderLARS, Pred: model.Oracle{},
			Threshold: 0.95, HostsPerRound: 8, CheckEvery: 2 * time.Hour,
		})
		if _, err := sim.Run(sim.Config{Trace: tr, Policy: pol, Injectors: []sim.Injector{eng}, Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), rec.Decisions(), eng
	}
	first, decisions, eng := run()
	withdrawn, restored, paired := 0, 0, 0
	var last ptrace.Decision
	for _, d := range decisions {
		switch d.Kind {
		case ptrace.KindWithdraw:
			withdrawn++
		case ptrace.KindRestore:
			restored++
			if last.Kind == ptrace.KindRestore && last.T == d.T {
				paired++
				if last.Host >= d.Host {
					t.Fatalf("restores at %v out of host order: %d then %d", d.T, last.Host, d.Host)
				}
			}
		}
		last = d
	}
	if eng.Stats.HostsFreed == 0 || withdrawn != len(eng.Plan) || restored != eng.Stats.HostsFreed {
		t.Fatalf("%d withdrawals and %d restores recorded; want %d drains and %d freed hosts (stats %+v)",
			withdrawn, restored, len(eng.Plan), eng.Stats.HostsFreed, eng.Stats)
	}
	if paired == 0 {
		t.Fatal("no tick restored two hosts: the host order goes unchecked")
	}
	t.Logf("%d withdrawals, %d restores, %d restores after another at the same tick", withdrawn, restored, paired)
	for i := 1; i < 5; i++ {
		if again, _, _ := run(); !bytes.Equal(first, again) {
			t.Fatalf("run %d wrote a different decision stream", i+1)
		}
	}
}

// hookBalance wraps a policy and notes every OnExited of a VM it did not
// hear placed: the policy must never hear a copy window's reservation.
type hookBalance struct {
	scheduler.Policy
	placed   map[cluster.VMID]bool
	unplaced []cluster.VMID
}

func (b *hookBalance) OnPlaced(p *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	b.placed[vm.ID] = true
	b.Policy.OnPlaced(p, h, vm, now)
}

func (b *hookBalance) OnExited(p *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	if !b.placed[vm.ID] {
		b.unplaced = append(b.unplaced, vm.ID)
	}
	delete(b.placed, vm.ID)
	b.Policy.OnExited(p, h, vm, now)
}

// killAll is a host failure of the whole pool: once, at the tick at or
// after at, it kills every VM the pool runs.
type killAll struct {
	at   time.Duration
	done bool
}

func (k *killAll) Inject(ctl *sim.Control, now time.Duration) {
	if k.done || now < k.at {
		return
	}
	k.done = true
	for _, vm := range ctl.Pool().RunningVMs() {
		if err := ctl.Kill(vm.ID, now); err != nil {
			panic(err)
		}
	}
}

// TestKillLeavesCopyWindow: a kill reaches VMs only. A host failure that
// kills every VM mid-copy counts the trace's VMs alone in Result.Killed,
// the policy hears no exit of a VM it never placed, and the copy window
// holds its capacity on the target until the copy's end.
func TestKillLeavesCopyWindow(t *testing.T) {
	pol := &hookBalance{Policy: scheduler.NewBestFit(), placed: map[cluster.VMID]bool{}}
	eng := New(Config{Pred: model.Oracle{}, Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour})
	m, err := sim.NewMachine(sim.Config{
		Trace:     &trace.Trace{PoolName: "leak", Hosts: 4, HostCPU: 32000, HostMem: 131072, Horizon: 2 * time.Hour},
		Policy:    pol,
		Injectors: []sim.Injector{eng, &killAll{at: 10 * time.Minute}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// VMs 1 and 2 fill host 0 past the room for VM 3, which lands alone on
	// host 1: the first tick drains host 1 and copies VM 3 to host 2.
	shape := resources.Cores(12, 12*4096, 0)
	for id := 1; id <= 3; id++ {
		rec := trace.Record{ID: cluster.VMID(id), Shape: shape, Lifetime: 1000 * time.Hour}
		if _, err := m.Create(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(eng.inflight) != 1 || eng.inflight[0].dst.ID != 2 {
		t.Fatalf("copies in flight %+v, want one to host 2 (stats %+v)", eng.inflight, eng.Stats)
	}
	dst := eng.inflight[0].dst
	// The kill at 10 minutes leaves host 2 running nothing, holding the
	// window until the copy ends at 25.
	for _, at := range []time.Duration{10 * time.Minute, 20 * time.Minute} {
		if err := m.Advance(at); err != nil {
			t.Fatal(err)
		}
		if dst.NumVMs() != 0 || dst.Empty() || dst.Used() != shape {
			t.Fatalf("at %v: host 2 runs %d VMs, empty %v, used %s; want the window alone, %s", at, dst.NumVMs(), dst.Empty(), dst.Used(), shape)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Empty() || len(eng.inflight) != 0 {
		t.Errorf("after the copy's end: host 2 empty %v, %d copies in flight", dst.Empty(), len(eng.inflight))
	}
	if res.Killed != 3 {
		t.Errorf("Killed = %d for 3 trace VMs", res.Killed)
	}
	if len(pol.unplaced) > 0 {
		t.Errorf("policy heard OnExited for VMs it never placed: %v", pol.unplaced)
	}
	if n := m.Pool().NumVMs(); n != 0 {
		t.Errorf("%d VMs left in the pool after the kill", n)
	}
	if err := m.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTriggerSkipsReservations: a host that holds a copy window can be
// drained, but the window is not planned as a VM to move.
func TestTriggerSkipsReservations(t *testing.T) {
	p, ctl := newPool(4)
	e := New(Config{Pred: model.Oracle{}, Threshold: 0.99, HostsPerRound: 1, CheckEvery: 10 * time.Minute})
	// Host 0 runs VM 1, host 1 VMs 2 and 3, host 2 is full with VMs 4-11.
	hostOf := []cluster.HostID{0, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2}
	for i, h := range hostOf {
		if err := p.Place(mkVM(cluster.VMID(i+1), 4, 0, 1000*time.Hour), p.Host(h)); err != nil {
			t.Fatal(err)
		}
	}
	// The first check drains host 0 and reserves VM 1's copy on host 1,
	// the fullest host with room.
	e.Inject(ctl, time.Hour)
	if len(e.inflight) != 1 || e.inflight[0].dst.ID != 1 || e.inflight[0].reservation == nil {
		t.Fatalf("first drain: in flight %+v", e.inflight)
	}
	// The next check drains host 1, which now has the fewest VMs.
	e.Inject(ctl, time.Hour+10*time.Minute)
	if len(e.Plan) != 2 || e.Plan[1].Host != 1 {
		t.Fatalf("plan %+v, want a second drain of host 1", e.Plan)
	}
	var ids []cluster.VMID
	for _, vm := range e.Plan[1].VMs {
		ids = append(ids, vm.ID)
	}
	if !slices.Equal(ids, []cluster.VMID{2, 3}) || e.Stats.Planned != 3 {
		t.Fatalf("host 1's drain plans VMs %v (%d planned in all), want [2 3] (3)", ids, e.Stats.Planned)
	}
}

// idGuard is a lifetime model that answers as the oracle does, counts its
// calls and notes every VM ID below 1 it is asked about: trace VMs are
// numbered from 1.
type idGuard struct {
	calls int
	low   []cluster.VMID
}

func (g *idGuard) Name() string { return "id-guard" }

func (g *idGuard) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	g.calls++
	if vm.ID < 1 {
		g.low = append(g.low, vm.ID)
	}
	return model.Oracle{}.PredictRemaining(vm, uptime)
}

// TestModelsSeeNoCopyWindow: while a copy is in flight, neither la-binary,
// nilas nor lava, nor the defragmenter, asks its model about anything but
// a VM, and NILAS's exit time of a host holding only a copy window is now,
// at no model call: a window enters no host exit time.
func TestModelsSeeNoCopyWindow(t *testing.T) {
	for _, name := range []string{"la-binary", "nilas", "lava"} {
		g := &idGuard{}
		pol, err := scheduler.New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(Config{Pred: g, Threshold: 0.99, HostsPerRound: 1, CheckEvery: time.Hour})
		m, err := sim.NewMachine(sim.Config{
			Trace:     &trace.Trace{PoolName: "guard", Hosts: 4, HostCPU: 32000, HostMem: 131072, Horizon: 2 * time.Hour},
			Policy:    pol,
			Injectors: []sim.Injector{eng},
		})
		if err != nil {
			t.Fatal(err)
		}
		// VMs 1 and 2 share host 0 and VM 3 runs alone on host 1, which the
		// first tick drains: VM 3's copy holds capacity on host 2 from 5 to
		// 25 minutes. VMs 4-9, short-lived, arrive during the copy.
		for id := 1; id <= 9; id++ {
			rec := trace.Record{ID: cluster.VMID(id), Shape: resources.Cores(12, 12*4096, 0), Lifetime: 1000 * time.Hour}
			at := time.Duration(0)
			if id > 3 {
				rec.Shape, rec.Lifetime, at = resources.Cores(1, 4096, 0), time.Hour, 10*time.Minute
			}
			if _, err := m.Create(rec, at); err != nil {
				t.Fatal(err)
			}
			if id == 3 {
				if err := m.Advance(5 * time.Minute); err != nil {
					t.Fatal(err)
				}
				if len(eng.inflight) != 1 {
					t.Fatalf("%s: %d copies in flight, want 1 (stats %+v)", name, len(eng.inflight), eng.Stats)
				}
			}
		}
		if _, err := m.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(g.low) > 0 || g.calls == 0 {
			t.Errorf("%s: %d model calls, on VM IDs below 1: %v", name, g.calls, g.low)
		}
	}

	p, ctl := newPool(1)
	if _, err := ctl.Reserve(resources.Cores(4, 4*4096, 0), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	g := &idGuard{}
	if exit := scheduler.NewExitCache(g, 0).HostExit(p.Host(0), time.Hour); exit != time.Hour || g.calls != 0 {
		t.Errorf("a host holding only a copy window exits at %v after %d model calls, want %v after 0", exit, g.calls, time.Hour)
	}
}
