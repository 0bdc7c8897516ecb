package defrag

import (
	"bytes"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
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
		Threshold: 0.99, HostsPerRound: 1, MaxConcurrent: 1, CheckEvery: time.Hour,
	})
	// Host 0 has two VMs: one long, one exiting very soon. With only one
	// migration slot, the long VM migrates first (even in trace order it is
	// first by ID) and the short one exits while waiting.
	long := mkVM(1, 4, 0, 1000*time.Hour)
	short := mkVM(2, 4, 0, 90*time.Minute)
	if err := p.Place(long, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(short, p.Host(0)); err != nil {
		t.Fatal(err)
	}

	e.Inject(ctl, time.Hour) // trigger; starts migrating VM 1
	if e.Stats.Planned != 2 || e.Stats.Performed != 1 {
		t.Fatalf("stats after trigger: %+v", e.Stats)
	}
	// VM 2 exits naturally at 90m, before its migration starts.
	if _, _, err := p.Exit(2); err != nil {
		t.Fatal(err)
	}
	e.Inject(ctl, time.Hour+21*time.Minute) // completes VM 1, reaps VM 2
	if e.Stats.Saved != 1 {
		t.Fatalf("saved = %d, want 1 (stats %+v)", e.Stats.Saved, e.Stats)
	}
	if e.Stats.Performed != 1 {
		t.Fatalf("performed = %d, want 1", e.Stats.Performed)
	}
}

func TestLARSOrdersLongestFirst(t *testing.T) {
	p, ctl := newPool(3)
	e := New(Config{
		Strategy:  OrderLARS,
		Pred:      model.Oracle{},
		Threshold: 0.99, HostsPerRound: 1, MaxConcurrent: 1, CheckEvery: time.Hour,
	})
	// VM 1 is short, VM 2 long: LARS must migrate VM 2 first despite the
	// lower ID of VM 1.
	if err := p.Place(mkVM(1, 4, 0, 2*time.Hour), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(mkVM(2, 4, 0, 1000*time.Hour), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	e.Inject(ctl, time.Hour)
	if len(e.inflight) != 1 || e.inflight[0].vmID != 2 {
		t.Fatalf("LARS migrated wrong VM first: %+v", e.inflight)
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
			Threshold: 0.99, HostsPerRound: 2, MaxConcurrent: 1, CheckEvery: time.Hour,
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
		Threshold: 0.99, HostsPerRound: 1, MaxConcurrent: 3, CheckEvery: time.Hour,
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
