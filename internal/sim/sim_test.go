package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/metrics"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func smallTrace(t *testing.T, days int, util float64, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "sim-test", Zone: "z1", Hosts: 24, TargetUtil: util,
		Duration: time.Duration(days) * simtime.Day, Prefill: 12 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil trace/policy must fail")
	}
	if _, err := Run(Config{Trace: &trace.Trace{}, Policy: scheduler.NewWasteMin()}); err == nil {
		t.Fatal("zero hosts must fail")
	}
}

func TestRunBaselineConserves(t *testing.T) {
	tr := smallTrace(t, 5, 0.6, 1)
	res, err := Run(Config{
		Trace:           tr,
		Policy:          scheduler.NewWasteMin(),
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements+res.Failed != len(tr.Records) {
		t.Fatalf("placements %d + failed %d != records %d", res.Placements, res.Failed, len(tr.Records))
	}
	if res.Exits != res.Placements {
		// All placed VMs exit within the trace horizon only if their exit
		// lands before the last event; long tails may survive. Exits can be
		// lower but never higher.
		if res.Exits > res.Placements {
			t.Fatalf("exits %d > placements %d", res.Exits, res.Placements)
		}
	}
	if res.Failed > len(tr.Records)/20 {
		t.Fatalf("too many capacity failures: %d / %d", res.Failed, len(tr.Records))
	}
	if res.Series.Len() == 0 {
		t.Fatal("no samples collected")
	}
	if res.AvgEmptyHostFrac < 0 || res.AvgEmptyHostFrac > 1 {
		t.Fatalf("empty-host frac = %v", res.AvgEmptyHostFrac)
	}
	// Steady-state utilization should land near the generator target.
	if res.AvgCPUUtil < 0.35 || res.AvgCPUUtil > 0.85 {
		t.Fatalf("cpu util = %v, want near 0.6", res.AvgCPUUtil)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallTrace(t, 3, 0.6, 2)
	run := func() *Result {
		res, err := Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgEmptyHostFrac != b.AvgEmptyHostFrac || a.Placements != b.Placements || a.Failed != b.Failed {
		t.Fatal("identical configs produced different results")
	}
}

func TestSamplesEvenlySpaced(t *testing.T) {
	tr := smallTrace(t, 2, 0.5, 3)
	res, err := Run(Config{Trace: tr, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < res.Series.Len(); i++ {
		gap := res.Series.Samples[i].Time - res.Series.Samples[i-1].Time
		if gap != simtime.SampleEvery {
			t.Fatalf("sample gap = %v, want %v", gap, simtime.SampleEvery)
		}
	}
}

// TestLifetimeAwareBeatsBaseline is the headline integration test: with an
// oracle predictor, NILAS and LAVA must produce more empty hosts than the
// lifetime-unaware baseline on the same trace (Fig. 6).
func TestLifetimeAwareBeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration study")
	}
	tr := smallTrace(t, 10, 0.65, 4)

	runWith := func(p scheduler.Policy) float64 {
		res, err := Run(Config{Trace: tr, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgEmptyHostFrac
	}

	base := runWith(scheduler.NewWasteMin())
	nilas := runWith(scheduler.NewNILAS(model.Oracle{}, 0))
	lava := runWith(scheduler.NewLAVA(model.Oracle{}, 0))

	t.Logf("empty-host frac: baseline=%.4f nilas=%.4f lava=%.4f", base, nilas, lava)
	if nilas <= base {
		t.Errorf("NILAS (%.4f) must beat baseline (%.4f)", nilas, base)
	}
	if lava <= base {
		t.Errorf("LAVA (%.4f) must beat baseline (%.4f)", lava, base)
	}
}

// tickCounter counts the ticks it is injected on.
type tickCounter struct {
	n    int
	last time.Duration
}

func (c *tickCounter) Inject(_ *Control, now time.Duration) {
	c.n++
	c.last = now
}

func TestInjectorsTicked(t *testing.T) {
	tr := smallTrace(t, 1, 0.5, 5)
	c := &tickCounter{}
	_, err := Run(Config{
		Trace: tr, Policy: scheduler.NewWasteMin(),
		Injectors: []Injector{c},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.n < 20 || c.last != time.Duration(c.n)*simtime.TickEvery {
		t.Fatalf("injector ticked %d times over ~1 day, last at %v; want >= 20, every %v", c.n, c.last, simtime.TickEvery)
	}
}

// killFirst kills the lowest-ID running VM once, at the first tick at or
// after At.
type killFirst struct {
	At    time.Duration
	done  bool
	KillT time.Duration
}

func (k *killFirst) Inject(ctl *Control, now time.Duration) {
	if k.done || now < k.At {
		return
	}
	vms := ctl.Pool().RunningVMs()
	if len(vms) == 0 {
		return
	}
	if err := ctl.Kill(vms[0].ID, now); err != nil {
		panic(err)
	}
	k.done = true
	k.KillT = now
}

func TestInjectorKillsVM(t *testing.T) {
	tr := smallTrace(t, 2, 0.6, 7)
	inj := &killFirst{At: tr.WarmUp / 2}
	res, err := Run(Config{
		Trace: tr, Policy: scheduler.NewWasteMin(),
		Injectors:       []Injector{inj},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inj.done {
		t.Fatal("injector never fired")
	}
	if res.Killed != 1 {
		t.Fatalf("Killed = %d, want 1", res.Killed)
	}
	// The killed VM's natural EXIT event must be skipped, not double
	// counted: every placement leaves at most once, through either path.
	if res.Exits+res.Killed > res.Placements {
		t.Fatalf("exits %d + killed %d > placements %d", res.Exits, res.Killed, res.Placements)
	}
}

func TestControlKillUnknownVM(t *testing.T) {
	pool := cluster.NewPool("p", 4, workload.DefaultHostShape)
	ctl := NewControl(pool, scheduler.NewWasteMin(), nil)
	if err := ctl.Kill(42, time.Hour); err == nil {
		t.Fatal("killing a VM that is not running must fail")
	}
}

// hookLog is a policy that records its placement and exit hooks.
type hookLog struct {
	scheduler.Policy
	calls []string
}

func (l *hookLog) OnPlaced(_ *cluster.Pool, h *cluster.Host, vm *cluster.VM, _ time.Duration) {
	l.calls = append(l.calls, fmt.Sprintf("placed vm %d on host %d", vm.ID, h.ID))
}

func (l *hookLog) OnExited(_ *cluster.Pool, h *cluster.Host, vm *cluster.VM, _ time.Duration) {
	l.calls = append(l.calls, fmt.Sprintf("exited vm %d from host %d", vm.ID, h.ID))
}

// TestControlMigrateFiresHooks: an injected migration reaches the run's
// policy as an exit from the source, then a placement on the target; a
// refused one reaches it not at all, and a Control without a policy still
// moves VMs.
func TestControlMigrateFiresHooks(t *testing.T) {
	pool := cluster.NewPool("p", 3, workload.DefaultHostShape)
	rec := &hookLog{Policy: scheduler.NewBestFit()}
	ctl := NewControl(pool, rec, nil)
	vm := &cluster.VM{ID: 1, Shape: resources.Cores(4, 16384, 0), TrueLifetime: time.Hour}
	if err := pool.Place(vm, pool.Host(0)); err != nil {
		t.Fatal(err)
	}
	if h, err := ctl.Schedule(vm, 0); err != nil || h.ID != 0 {
		t.Fatalf("Schedule = %v, %v; want best-fit host 0", h, err)
	}
	if err := ctl.Migrate(1, pool.Host(0), time.Minute); err == nil {
		t.Fatal("migrating a VM to its own host must fail")
	}
	if err := ctl.Migrate(1, pool.Host(2), time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []string{"exited vm 1 from host 0", "placed vm 1 on host 2"}
	if !reflect.DeepEqual(rec.calls, want) || pool.HostOf(1) != pool.Host(2) {
		t.Fatalf("hooks %q, vm on host %d; want %q and host 2", rec.calls, pool.HostOf(1).ID, want)
	}
	if err := NewControl(pool, nil, nil).Migrate(1, pool.Host(1), time.Minute); err != nil || pool.HostOf(1) != pool.Host(1) {
		t.Fatalf("migration without a policy: %v", err)
	}
}

func TestWarmUpExcludedFromAggregates(t *testing.T) {
	tr := smallTrace(t, 3, 0.6, 6)
	// Force a tiny warm-up vs the trace's full prefill.
	short := *tr
	short.WarmUp = time.Minute
	resAll, err := Run(Config{Trace: &short, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	resWarm, err := Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.WarmUp != tr.WarmUp {
		t.Fatalf("default warm-up = %v, want trace prefill %v", resWarm.WarmUp, tr.WarmUp)
	}
	// The pool starts fully empty, so including the ramp-up inflates the
	// empty-host average.
	if resAll.AvgEmptyHostFrac <= resWarm.AvgEmptyHostFrac {
		t.Fatalf("warm-up exclusion had no effect: %v vs %v", resAll.AvgEmptyHostFrac, resWarm.AvgEmptyHostFrac)
	}
	// Full series retained either way.
	if resWarm.Series.Len() != resAll.Series.Len() {
		t.Fatal("warm-up must not drop samples from the full series")
	}
	if got := resWarm.Series.After(tr.WarmUp).Len(); got >= resWarm.Series.Len() {
		t.Fatal("After() must trim samples")
	}
	// The online aggregates equal the series mean bit for bit.
	for _, res := range []*Result{resAll, resWarm} {
		after := res.Series.After(res.WarmUp)
		for _, c := range []struct {
			name string
			got  float64
			f    metrics.Field
		}{
			{"AvgEmptyHostFrac", res.AvgEmptyHostFrac, metrics.EmptyHostFrac},
			{"AvgEmptyToFree", res.AvgEmptyToFree, metrics.EmptyToFree},
			{"AvgPackingDensity", res.AvgPackingDensity, metrics.PackingDensity},
			{"AvgCPUUtil", res.AvgCPUUtil, metrics.CPUUtil},
		} {
			if want := after.Mean(c.f); c.got != want {
				t.Errorf("warm-up %v: %s = %v, series mean %v", res.WarmUp, c.name, c.got, want)
			}
		}
	}
}

// TestTracingObserveOnly is the observe-only half of the tracing contract:
// attaching a recorder must not change a single simulation outcome, and the
// recorded stream must be a faithful event log — sequential, complete
// (every arrival decided, every departure logged) and time-ordered.
func TestTracingObserveOnly(t *testing.T) {
	tr := smallTrace(t, 3, 0.6, 8)
	base, err := Run(Config{Trace: tr, Policy: scheduler.NewLAVA(model.Oracle{}, time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	rec := ptrace.New(ptrace.Options{K: 3, Policy: "lava"})
	traced, err := Run(Config{
		Trace:  tr,
		Policy: scheduler.NewLAVA(model.Oracle{}, time.Minute),
		Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Placements != traced.Placements || base.Failed != traced.Failed ||
		base.Exits != traced.Exits || base.ModelCalls != traced.ModelCalls ||
		base.AvgEmptyHostFrac != traced.AvgEmptyHostFrac {
		t.Fatalf("tracing changed results:\n untraced: %+v\n traced:   %+v", base, traced)
	}

	ds := rec.Decisions()
	var places, fails, exits int
	lastT := time.Duration(-1)
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
		if d.T < lastT {
			t.Fatalf("decision seq %d goes back in time: %v after %v", d.Seq, d.T, lastT)
		}
		lastT = d.T
		switch d.Kind {
		case ptrace.KindPlace:
			places++
			if d.Rec == nil || d.Host < 0 || len(d.Alts) == 0 {
				t.Fatalf("malformed place decision: %+v", d)
			}
		case ptrace.KindFail:
			fails++
			if d.Host != -1 {
				t.Fatalf("fail decision with host: %+v", d)
			}
		case ptrace.KindExit:
			exits++
		default:
			t.Fatalf("unexpected kind %v in an injector-free run", d.Kind)
		}
	}
	if places != base.Placements || fails != base.Failed || exits != base.Exits {
		t.Fatalf("stream counts place/fail/exit = %d/%d/%d, result says %d/%d/%d",
			places, fails, exits, base.Placements, base.Failed, base.Exits)
	}
}

// TestTracingRecordsInjections: control-plane events (injected kills) land
// in the decision stream with their tick timestamps.
func TestTracingRecordsInjections(t *testing.T) {
	tr := smallTrace(t, 2, 0.6, 7)
	inj := &killFirst{At: tr.WarmUp / 2}
	rec := ptrace.New(ptrace.Options{K: 2, Policy: "wastemin"})
	res, err := Run(Config{
		Trace: tr, Policy: scheduler.NewWasteMin(),
		Injectors: []Injector{inj},
		Tracer:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed != 1 {
		t.Fatalf("Killed = %d, want 1", res.Killed)
	}
	var kills int
	for _, d := range rec.Decisions() {
		if d.Kind == ptrace.KindKill {
			kills++
			if d.T != inj.KillT {
				t.Fatalf("kill recorded at %v, injector fired at %v", d.T, inj.KillT)
			}
			if d.Host < 0 || d.VM < 0 {
				t.Fatalf("kill decision missing host/vm: %+v", d)
			}
		}
	}
	if kills != 1 {
		t.Fatalf("recorded %d kills, want 1", kills)
	}
}
