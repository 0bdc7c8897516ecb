package scheduler

import (
	"math"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/simtime"
)

// place puts a VM with the given true lifetime on a host at time created.
func place(t *testing.T, p *cluster.Pool, pol Policy, id cluster.VMID, cores int64, created, lifetime time.Duration, h *cluster.Host) *cluster.VM {
	t.Helper()
	vm := &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: created, TrueLifetime: lifetime}
	if err := p.Place(vm, h); err != nil {
		t.Fatal(err)
	}
	if pol != nil {
		pol.OnPlaced(p, h, vm, created)
	}
	return vm
}

func newVM(id cluster.VMID, cores int64, created, lifetime time.Duration) *cluster.VM {
	return &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: created, TrueLifetime: lifetime}
}

func pool(n int) *cluster.Pool {
	return cluster.NewPool("t", n, resources.Cores(32, 32*4096, 0))
}

func TestChainNoCapacity(t *testing.T) {
	p := pool(1)
	pol := NewWasteMin()
	big := newVM(1, 33, 0, time.Hour)
	if _, err := pol.Schedule(p, big, 0); err != ErrNoCapacity {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestChainSkipsUnavailableHosts(t *testing.T) {
	p := pool(2)
	p.Host(0).Unavailable = true
	pol := NewWasteMin()
	h, err := pol.Schedule(p, newVM(1, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("scheduled on unavailable host %d", h.ID)
	}
}

func TestChainDeterministicTieBreak(t *testing.T) {
	p := pool(4) // all empty, all identical: lowest ID must win
	pol := NewWasteMin()
	h, err := pol.Schedule(p, newVM(1, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("tie-break picked host %d, want 0", h.ID)
	}
}

func TestBaselineAvoidsEmptyHosts(t *testing.T) {
	p := pool(3)
	pol := NewWasteMin()
	place(t, p, pol, 1, 8, 0, time.Hour, p.Host(2))
	h, err := pol.Schedule(p, newVM(2, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 2 {
		t.Fatalf("baseline opened empty host %d instead of packing host 2", h.ID)
	}
}

func TestBestFitPicksFullestHost(t *testing.T) {
	p := pool(3)
	pol := NewBestFit()
	place(t, p, pol, 1, 8, 0, time.Hour, p.Host(0))
	place(t, p, pol, 2, 16, 0, time.Hour, p.Host(1))
	h, err := pol.Schedule(p, newVM(3, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("best fit picked host %d, want fullest host 1", h.ID)
	}
}

// --- LA-Binary -------------------------------------------------------------

func TestLABinaryPrefersSameClass(t *testing.T) {
	p := pool(3)
	la := NewLABinary(model.Oracle{})
	// Host 0 runs a long VM, host 1 a short VM.
	place(t, p, la, 1, 4, 0, 100*time.Hour, p.Host(0))
	place(t, p, la, 2, 4, 0, time.Hour, p.Host(1))

	// A long VM must join the long host.
	h, err := la.Schedule(p, newVM(3, 4, 0, 80*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("long VM landed on host %d, want 0", h.ID)
	}
	// A short VM must join the short host.
	h, err = la.Schedule(p, newVM(4, 4, 0, 30*time.Minute), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("short VM landed on host %d, want 1", h.ID)
	}
}

// TestLABinaryMispredictionPinsHost demonstrates the failure mode LAVA
// fixes (§1): with a one-shot underprediction, the host silently degrades
// to "short" while actually hosting a long VM, attracting short VMs onto a
// host that never frees up — and no mechanism ever corrects it.
func TestLABinaryMispredictionPinsHost(t *testing.T) {
	p := pool(2)
	// Predictor that lies: everything is predicted to live 30 minutes.
	liar := liarPredictor{constant: 30 * time.Minute}
	la := NewLABinary(liar)
	// VM is truly long-lived but predicted short.
	place(t, p, la, 1, 4, 0, 500*time.Hour, p.Host(0))

	// Two hours later, the initial prediction has expired. The host now
	// counts as short even though its VM is still running.
	now := 3 * time.Hour
	if la.hostLong(p.Host(0), now) {
		t.Fatal("LA-Binary must consider the host short after its one-shot prediction expired")
	}
	// Short VMs keep piling onto the stuck host.
	h, err := la.Schedule(p, newVM(2, 4, now, 10*time.Minute), now)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("short VM landed on host %d, want the (mispredicted) host 0", h.ID)
	}
}

// liarPredictor always predicts the same remaining lifetime.
type liarPredictor struct{ constant time.Duration }

func (l liarPredictor) Name() string { return "liar" }
func (l liarPredictor) PredictRemaining(*cluster.VM, time.Duration) time.Duration {
	return l.constant
}

// --- NILAS -------------------------------------------------------------------

func TestNILASPrefersCoveredExit(t *testing.T) {
	p := pool(3)
	n := NewNILAS(model.Oracle{}, 0)
	// Host 0 exits in 10h; host 1 exits in 1h.
	place(t, p, n, 1, 4, 0, 10*time.Hour, p.Host(0))
	place(t, p, n, 2, 4, 0, time.Hour, p.Host(1))

	// A 5h VM fits under host 0's exit (∆T = 0) but would extend host 1 by
	// 4h. NILAS must pick host 0 — the Fig. 4 example.
	h, err := n.Schedule(p, newVM(3, 4, 0, 5*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("NILAS picked host %d, want 0", h.ID)
	}
}

func TestNILASMinimizesExtensionWhenUncovered(t *testing.T) {
	p := pool(3)
	n := NewNILAS(model.Oracle{}, 0)
	place(t, p, n, 1, 4, 0, 10*time.Hour, p.Host(0))
	place(t, p, n, 2, 4, 0, time.Hour, p.Host(1))

	// A 12h VM extends host 0 by 2h (bucket 4) and host 1 by 11h (bucket
	// 8): host 0 wins (Algorithm 2's "changed by least amount").
	h, err := n.Schedule(p, newVM(3, 4, 0, 12*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("NILAS picked host %d, want 0", h.ID)
	}
}

func TestNILASAvoidsEmptyHostsWithinBucket(t *testing.T) {
	p := pool(2)
	n := NewNILAS(model.Oracle{}, 0)
	place(t, p, n, 1, 4, 0, 2*time.Hour, p.Host(0))
	// A 1h VM: ∆T=0 on host 0; on the empty host ∆T=1h (bucket 2). Host 0
	// wins on temporal cost alone.
	h, err := n.Schedule(p, newVM(2, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("NILAS picked host %d, want 0", h.ID)
	}
}

// TestNILASRepredictionCorrects shows the central claim: a VM that outlived
// its (mis)prediction keeps the host's exit time high under reprediction, so
// long VMs still join it instead of being spread across fresh hosts.
func TestNILASRepredictionCorrects(t *testing.T) {
	p := pool(2)
	n := NewNILAS(model.Oracle{}, 0) // oracle = perfect repredictions
	// Truly long VM on host 0.
	place(t, p, n, 1, 4, 0, 500*time.Hour, p.Host(0))
	// Another long VM on host 1 exiting sooner.
	place(t, p, n, 2, 4, 0, 100*time.Hour, p.Host(1))

	now := 50 * time.Hour
	// A 300h VM fits under host 0's repredicted exit (450h remaining) with
	// ∆T=0; host 1 would be extended by 250h.
	h, err := n.Schedule(p, newVM(3, 4, now, 300*time.Hour), now)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("NILAS with reprediction picked host %d, want 0", h.ID)
	}
}

// --- ExitCache -----------------------------------------------------------------

// countingPredictor counts invocations.
type countingPredictor struct {
	calls *int
	rem   time.Duration
}

func (c countingPredictor) Name() string { return "counting" }
func (c countingPredictor) PredictRemaining(*cluster.VM, time.Duration) time.Duration {
	*c.calls++
	return c.rem
}

func TestExitCacheRefreshInterval(t *testing.T) {
	p := pool(1)
	calls := 0
	cp := countingPredictor{calls: &calls, rem: 5 * time.Hour}
	c := NewExitCache(cp, time.Minute)
	h := p.Host(0)
	vm := newVM(1, 4, 0, 5*time.Hour)
	if err := p.Place(vm, h); err != nil {
		t.Fatal(err)
	}

	// First read computes; second read within the interval is cached.
	_ = c.HostExit(h, 0)
	first := calls
	_ = c.HostExit(h, 30*time.Second)
	if calls != first {
		t.Fatalf("cache missed within refresh interval: %d -> %d calls", first, calls)
	}
	// Past the interval: recompute.
	_ = c.HostExit(h, 2*time.Minute)
	if calls == first {
		t.Fatal("cache did not refresh after interval")
	}
	// Invalidating a host the cache holds no entry for does nothing.
	c.Invalidate(h.ID + 1)
	c.Invalidate(-1)
	_ = c.HostExit(h, 2*time.Minute+time.Second)
	if calls == first {
		t.Fatal("cache did not refresh after interval")
	}
	// Invalidate forces recompute.
	before := calls
	c.Invalidate(h.ID)
	_ = c.HostExit(h, 2*time.Minute+time.Second)
	if calls == before {
		t.Fatal("invalidate did not force recompute")
	}
}

func TestExitCacheEmptyHost(t *testing.T) {
	p := pool(1)
	c := NewExitCache(model.Oracle{}, time.Minute)
	now := 7 * time.Hour
	if got := c.HostExit(p.Host(0), now); got != now {
		t.Fatalf("empty host exit = %v, want now (%v)", got, now)
	}
}

// TestEpochTemporalEmptyHostExitsNow is ExitCache's empty-host rule on the
// epoch-quantized level: a host emptied by a bare pool.Exit, with no
// OnExited to reset its exit estimate, scores exactly like a never-used host
// for every probe VM and time, across epoch boundaries.
func TestEpochTemporalEmptyHostExitsNow(t *testing.T) {
	n := NewNILASEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
	p := pool(2)
	used, fresh := p.Host(0), p.Host(1)
	placedAt := 30 * time.Minute
	vm := place(t, p, n, 1, 4, placedAt, 300*time.Hour, used)
	if _, _, err := p.Exit(vm.ID); err != nil {
		t.Fatal(err)
	}
	for _, life := range []time.Duration{time.Minute, 3 * time.Hour, 30 * time.Hour, 300 * time.Hour} {
		for _, at := range []time.Duration{placedAt, DefaultEpoch - 1, DefaultEpoch, 5*DefaultEpoch + time.Minute} {
			probe := newVM(2, 4, at, life)
			if a, b := n.et.score(used, probe, at), n.et.score(fresh, probe, at); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("life %v at %v: emptied host scores %v, never-used host %v", life, at, a, b)
			}
		}
	}
}

func TestExitCacheMemoizesVM(t *testing.T) {
	calls := 0
	cp := countingPredictor{calls: &calls, rem: time.Hour}
	c := NewExitCache(cp, 0)
	vm := newVM(1, 4, 0, time.Hour)
	_ = c.Remaining(vm, 0)
	_ = c.Remaining(vm, 0)
	if calls != 1 {
		t.Fatalf("memo failed: %d calls, want 1", calls)
	}
	_ = c.Remaining(vm, time.Minute) // different time: recompute
	if calls != 2 {
		t.Fatalf("memo over-cached: %d calls, want 2", calls)
	}
	_ = c.Remaining(newVM(1, 4, 0, time.Hour), time.Minute) // same ID, another VM: recompute
	if calls != 3 {
		t.Fatalf("memo answered a new VM with its ID's prediction: %d calls, want 3", calls)
	}
}

// --- LAVA ------------------------------------------------------------------------

func TestLAVAOpensEmptyHostWithClass(t *testing.T) {
	p := pool(2)
	l := NewLAVA(model.Oracle{}, 0)
	vm := newVM(1, 4, 0, 50*time.Hour) // LC3
	h, err := l.Schedule(p, vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Place(vm, h); err != nil {
		t.Fatal(err)
	}
	l.OnPlaced(p, h, vm, 0)
	if v := HostOf(l, h); v.State != "open" || v.Class != simtime.LC3 {
		t.Fatalf("host after first placement: %+v", v)
	}
	if v := HostOf(l, h); v.Deadline != simtime.LC3.Deadline() {
		t.Fatalf("deadline = %v, want %v", v.Deadline, simtime.LC3.Deadline())
	}
}

func TestLAVAOpenHostAcceptsSameClassOnly(t *testing.T) {
	p := pool(2)
	l := NewLAVA(model.Oracle{}, 0)
	// Open host 0 as LC3.
	vm1 := newVM(1, 4, 0, 50*time.Hour)
	place(t, p, l, vm1.ID, 4, 0, 50*time.Hour, p.Host(0))

	// Another LC3 VM prefers the open LC3 host over an empty one.
	h, err := l.Schedule(p, newVM(2, 4, 0, 30*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("LC3 VM picked host %d, want open LC3 host 0", h.ID)
	}
	// An LC1 VM has no recycling host above it and no matching open host;
	// it falls to "any non-empty host", which is still host 0.
	h, err = l.Schedule(p, newVM(3, 4, 0, 10*time.Minute), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 0 {
		t.Fatalf("LC1 VM picked host %d, want non-empty host 0", h.ID)
	}
}

func TestLAVARecyclingTransitionAt90Percent(t *testing.T) {
	p := pool(1)
	l := NewLAVA(model.Oracle{}, 0)
	h := p.Host(0)
	// Fill to 28/32 cores (87.5%): still open.
	place(t, p, l, 1, 28, 0, 50*time.Hour, h)
	if v := HostOf(l, h); v.State != "open" {
		t.Fatalf("state at 87.5%% = %v, want open", v.State)
	}
	// Add 2 more cores (93.75%): recycling.
	place(t, p, l, 2, 2, 0, 50*time.Hour, h)
	if v := HostOf(l, h); v.State != "recycling" {
		t.Fatalf("state at 93.75%% = %v, want recycling", v.State)
	}
	if Residuals(h) != 2 {
		t.Fatalf("residuals = %d, want 2", Residuals(h))
	}
}

func TestLAVAPrefersClosestHigherRecyclingHost(t *testing.T) {
	p := pool(4)
	l := NewLAVA(model.Oracle{}, 0)
	// Manufacture recycling hosts of class LC3 and LC4 and an open LC2.
	h3, h4, h2 := p.Host(0), p.Host(1), p.Host(2)
	place(t, p, l, 1, 30, 0, 50*time.Hour, h3) // opens LC3, recycling at 93.75%
	if v := HostOf(l, h3); v.State != "recycling" {
		t.Fatalf("host 0 state %v", v.State)
	}
	place(t, p, l, 2, 30, 0, 500*time.Hour, h4) // LC4 recycling
	place(t, p, l, 3, 4, 0, 5*time.Hour, h2)    // LC2 open

	// An LC2 VM (5h predicted): recycling candidates are LC3 (distance 1)
	// and LC4 (distance 2) — LC3 wins despite LC4 being fuller-scored
	// elsewhere; matching open host would score 4.
	h, err := l.Schedule(p, newVM(4, 1, 0, 5*time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != h3.ID {
		t.Fatalf("LC2 VM picked host %d, want closest recycling host %d", h.ID, h3.ID)
	}
}

func TestLAVADemotesOnResidualDrain(t *testing.T) {
	p := pool(1)
	l := NewLAVA(model.Oracle{}, 0)
	h := p.Host(0)
	// Open LC3 and force recycling.
	place(t, p, l, 1, 30, 0, 50*time.Hour, h)
	// Gap-fill with an LC2 VM.
	place(t, p, l, 2, 1, time.Hour, 5*time.Hour, h)
	if h.VM(2).Mark {
		t.Fatal("gap filler must not be residual")
	}
	// The residual exits -> demote to LC2, filler becomes residual.
	now := 49 * time.Hour
	hh, vm, err := p.Exit(1)
	if err != nil {
		t.Fatal(err)
	}
	l.OnExited(p, hh, vm, now)
	if v := HostOf(l, h); v.Class != simtime.LC2 {
		t.Fatalf("class after drain = %v, want LC2", v.Class)
	}
	if !h.VM(2).Mark {
		t.Fatal("remaining VM must be residual after demotion")
	}
	if v := HostOf(l, h); v.State != "recycling" {
		t.Fatalf("state = %v, want recycling", v.State)
	}
}

func TestLAVAResetsOnEmpty(t *testing.T) {
	p := pool(1)
	l := NewLAVA(model.Oracle{}, 0)
	h := p.Host(0)
	place(t, p, l, 1, 4, 0, 5*time.Hour, h)
	hh, vm, err := p.Exit(1)
	if err != nil {
		t.Fatal(err)
	}
	l.OnExited(p, hh, vm, 5*time.Hour)
	if v := HostOf(l, h); v.State != "empty" || v.Class != 0 {
		t.Fatalf("host not reset: %+v", v)
	}
}

func TestLAVAPromotesOnDeadline(t *testing.T) {
	p := pool(1)
	l := NewLAVA(model.Oracle{}, 0)
	h := p.Host(0)
	// Open as LC1 (30-minute VM): deadline = 1.1h.
	place(t, p, l, 1, 4, 0, 30*time.Minute, h)
	if v := HostOf(l, h); v.Class != simtime.LC1 {
		t.Fatalf("class = %v, want LC1", v.Class)
	}
	// Tick before the deadline: nothing.
	l.OnTick(p, time.Hour)
	if HostOf(l, h).Class != simtime.LC1 {
		t.Fatal("premature promotion")
	}
	// Tick past 1.1h: promote to LC2 (Fig. 5c), VMs become residual.
	l.OnTick(p, 70*time.Minute)
	if v := HostOf(l, h); v.Class != simtime.LC2 {
		t.Fatalf("class after deadline = %v, want LC2", v.Class)
	}
	if !h.VM(1).Mark {
		t.Fatal("VM must become residual on promotion")
	}
	// Deadline restarted: 70m + 11h.
	want := 70*time.Minute + simtime.LC2.Deadline()
	if v := HostOf(l, h); v.Deadline != want {
		t.Fatalf("new deadline = %v, want %v", v.Deadline, want)
	}
}

func TestLAVAFallsBackToEmptyHostLast(t *testing.T) {
	p := pool(2)
	l := NewLAVA(model.Oracle{}, 0)
	// Host 0 completely full.
	place(t, p, l, 1, 32, 0, 50*time.Hour, p.Host(0))
	h, err := l.Schedule(p, newVM(2, 4, 0, time.Hour), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 1 {
		t.Fatalf("VM picked host %d, want empty host 1", h.ID)
	}
}

func TestModelCallTelemetry(t *testing.T) {
	p := pool(2)
	n := NewNILAS(model.Oracle{}, 0)
	place(t, p, n, 1, 4, 0, 10*time.Hour, p.Host(0))
	if _, err := n.Schedule(p, newVM(2, 4, 0, time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	if n.ModelCalls() == 0 {
		t.Fatal("scheduling must invoke the model")
	}
}

// The capabilities every chain policy gets by embedding CachedChain. Asserted
// at compile time: a promoted method shadowed by a future field or dropped by
// a re-cut of the embedding fails this build, not a golden three packages
// away.
type chainPolicy interface {
	Policy
	Traceable
	levelScorable
	SetEngine(Engine)
	engineOf() Engine
	CacheStats() CacheStats
}

var (
	_ chainPolicy = (*CachedChain)(nil) // what NewWasteMin and NewBestFit return
	_ chainPolicy = (*LABinary)(nil)
	_ chainPolicy = (*NILAS)(nil)
	_ chainPolicy = (*LAVA)(nil)

	_ interface{ ModelCalls() int64 } = (*NILAS)(nil)
	_ interface{ ModelCalls() int64 } = (*LAVA)(nil)
)

// TestPolicyShape walks every constructor: the name, the engine switch, and
// the pre-warm rule of NILAS.Schedule — a policy with a context key
// repredicts the VM once per Schedule even when a single feasible host lets
// the chain skip scoring; exact nilas has no key and makes no call.
func TestPolicyShape(t *testing.T) {
	type ctor func() (Policy, error)
	ctors := map[string]ctor{
		"nilas-epoch": func() (Policy, error) { return NewNILASEpoch(model.Oracle{}, time.Minute, 0), nil },
		"lava-epoch":  func() (Policy, error) { return NewLAVAEpoch(model.Oracle{}, time.Minute, 0), nil },
	}
	for _, name := range Names() {
		ctors[name] = func() (Policy, error) { return New(name, model.Oracle{}) }
	}
	wantCalls := map[string]int64{"nilas": 0, "nilas-epoch": 1, "lava": 1, "lava-epoch": 1}
	for name, mk := range ctors {
		for _, engine := range []Engine{EngineCached, EngineExhaustive} {
			p, err := mk()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if p.Name() != name {
				t.Errorf("%s: Name() = %q", name, p.Name())
			}
			if EngineOf(p) != EngineCached {
				t.Errorf("%s: default engine = %v, want cached", name, EngineOf(p))
			}
			if SetEngine(p, EngineExhaustive); EngineOf(p) != EngineExhaustive {
				t.Errorf("%s: SetEngine(exhaustive) did not take", name)
			}
			if SetEngine(p, engine); EngineOf(p) != engine {
				t.Errorf("%s: SetEngine(%v) did not take", name, engine)
			}
			if _, err := p.Schedule(pool(1), newVM(1, 4, 0, time.Hour), 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mc, ok := p.(interface{ ModelCalls() int64 })
			if want, counted := wantCalls[name]; ok != counted {
				t.Errorf("%s: ModelCalls() present = %v, want %v", name, ok, counted)
			} else if ok && mc.ModelCalls() != want {
				t.Errorf("%s engine %v: %d model calls after one single-host Schedule, want %d", name, engine, mc.ModelCalls(), want)
			}
		}
	}
}
