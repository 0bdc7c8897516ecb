package scheduler

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
)

// twin is one side of a differential run: its own pool and its own policy
// instance, fed the identical operation stream as its sibling. VM structs
// are never shared between twins (policies mutate InitialPrediction and the
// pool sets the Host back-pointer).
type twin struct {
	p   *cluster.Pool
	pol Policy
}

func newTwin(hosts int, mk func() Policy, engine Engine) *twin {
	tw := &twin{p: cluster.NewPool("twin", hosts, resources.Cores(16, 16*4096, 0)), pol: mk()}
	SetEngine(tw.pol, engine)
	return tw
}

// toggleDrain withdraws host id if it is in service and restores it
// otherwise, as a drain starting or ending out of band.
func toggleDrain(t testing.TB, p *cluster.Pool, id cluster.HostID) {
	t.Helper()
	change := p.Withdraw
	if p.Host(id).Unavailable() {
		change = p.Restore
	}
	if err := change(id); err != nil {
		t.Fatal(err)
	}
}

func (tw *twin) vm(id cluster.VMID, cores int64, created, life time.Duration) *cluster.VM {
	return &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: created, TrueLifetime: life}
}

// cachedPolicies are the policies ported onto the incremental engine,
// including the rollout wrapper.
func cachedPolicies() map[string]func() Policy {
	return map[string]func() Policy{
		"wastemin":  func() Policy { return NewWasteMin() },
		"bestfit":   func() Policy { return NewBestFit() },
		"la-binary": func() Policy { return NewLABinary(model.Oracle{}) },
		"nilas":     func() Policy { return NewNILAS(model.Oracle{}, time.Minute) },
		"lava":      func() Policy { return NewLAVA(model.Oracle{}, time.Minute) },
		"nilas-epoch": func() Policy {
			return NewNILASEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
		},
		"lava-epoch": func() Policy {
			return NewLAVAEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
		},
		"rollout": func() Policy {
			return NewSwitched(NewWasteMin(), NewLAVA(model.Oracle{}, time.Minute), 20*time.Hour)
		},
		"odd-scores": newOddScores,
	}
}

// newOddScores is a fully static chain whose scorers return every float64 a
// "not yet computed" marker could be mistaken for: zero, negatives, both
// infinities and, below level 0, NaN. Level 0 keeps the bucket contract
// (discrete, no NaN); all levels move with host state so cached values go
// stale and get re-derived throughout a twin run.
func newOddScores() Policy {
	pick := func(name string, vals []float64, skew func(h *cluster.Host) int) Scorer {
		return ScorerFunc{FuncName: name, F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
			return vals[(skew(h)+h.NumVMs())%len(vals)]
		}}
	}
	byID := func(h *cluster.Host) int { return int(h.ID) }
	return NewCachedChain(Chain{ChainName: "odd-scores", Scorers: []Scorer{
		pick("l0", []float64{math.Inf(-1), -1, 0, math.Inf(1)}, func(*cluster.Host) int { return 0 }),
		pick("l1", []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -2.5}, byID),
		pick("l2", []float64{0, -1}, byID),
	}}, nil, nil)
}

// TestCachedMatchesExhaustiveRandom is the scheduler-level differential
// property: the incremental engine and the exhaustive reference, driven
// with an identical random stream of arrivals, exits, migrations, host
// withdrawals and ticks, must make bit-identical decisions at every step.
func TestCachedMatchesExhaustiveRandom(t *testing.T) {
	for name, mk := range cachedPolicies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				const hosts = 8
				a := newTwin(hosts, mk, EngineCached)
				b := newTwin(hosts, mk, EngineExhaustive)
				var live []cluster.VMID
				vms := map[cluster.VMID][2]*cluster.VM{}
				now := time.Duration(0)
				for step := 0; step < 160; step++ {
					now += time.Duration(rng.Intn(45)) * time.Minute
					a.pol.OnTick(a.p, now)
					b.pol.OnTick(b.p, now)
					switch r := rng.Float64(); {
					case r < 0.55 || len(live) == 0: // arrival
						id := cluster.VMID(100000*seed + int64(step))
						cores := int64(1 + rng.Intn(8))
						life := time.Duration(1+rng.Intn(200)) * time.Hour
						va := a.vm(id, cores, now, life)
						vb := b.vm(id, cores, now, life)
						ha, errA := a.pol.Schedule(a.p, va, now)
						hb, errB := b.pol.Schedule(b.p, vb, now)
						if (errA == nil) != (errB == nil) {
							t.Logf("step %d: error divergence: cached=%v exhaustive=%v", step, errA, errB)
							return false
						}
						if errA != nil {
							continue
						}
						if ha.ID != hb.ID {
							t.Logf("step %d: cached picked host %d, exhaustive host %d", step, ha.ID, hb.ID)
							return false
						}
						if err := a.p.Place(va, ha); err != nil {
							t.Fatal(err)
						}
						if err := b.p.Place(vb, hb); err != nil {
							t.Fatal(err)
						}
						a.pol.OnPlaced(a.p, ha, va, now)
						b.pol.OnPlaced(b.p, hb, vb, now)
						live = append(live, id)
						vms[id] = [2]*cluster.VM{va, vb}
					case r < 0.85: // exit
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						pair := vms[id]
						delete(vms, id)
						hha, _, err := a.p.Exit(id)
						if err != nil {
							t.Fatal(err)
						}
						hhb, _, err := b.p.Exit(id)
						if err != nil {
							t.Fatal(err)
						}
						a.pol.OnExited(a.p, hha, pair[0], now)
						b.pol.OnExited(b.p, hhb, pair[1], now)
					case r < 0.93: // migration (defrag-style: hooks on both ends)
						if len(live) == 0 {
							continue
						}
						id := live[rng.Intn(len(live))]
						pair := vms[id]
						dst := cluster.HostID(rng.Intn(hosts))
						srcA := a.p.HostOf(id)
						if srcA == nil || srcA.ID == dst || !a.p.Host(dst).Fits(pair[0].Shape) || a.p.Host(dst).Unavailable() {
							continue
						}
						if _, err := a.p.Migrate(id, a.p.Host(dst)); err != nil {
							t.Fatal(err)
						}
						if _, err := b.p.Migrate(id, b.p.Host(dst)); err != nil {
							t.Fatal(err)
						}
						a.pol.OnExited(a.p, srcA, pair[0], now)
						b.pol.OnExited(b.p, b.p.Host(srcA.ID), pair[1], now)
						a.pol.OnPlaced(a.p, a.p.Host(dst), pair[0], now)
						b.pol.OnPlaced(b.p, b.p.Host(dst), pair[1], now)
					default: // withdraw/restore a host out of band
						id := cluster.HostID(rng.Intn(hosts))
						toggleDrain(t, a.p, id)
						toggleDrain(t, b.p, id)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScoreCacheExitThenReplaceSameTick covers the tightest invalidation
// window: a VM exits a host and the very next placement, at the same
// simulated instant, must see the freed capacity and the changed scores.
func TestScoreCacheExitThenReplaceSameTick(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin()
	now := time.Hour

	// Fill host 0 completely, host 1 partially; warm the cache.
	fill := &cluster.VM{ID: 1, Shape: resources.Cores(16, 16*4096, 0), Created: 0, TrueLifetime: 10 * time.Hour}
	if err := p.Place(fill, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	small := &cluster.VM{ID: 2, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: 10 * time.Hour}
	if err := p.Place(small, p.Host(1)); err != nil {
		t.Fatal(err)
	}
	probe := &cluster.VM{ID: 3, Shape: resources.Cores(4, 4*4096, 0), Created: now, TrueLifetime: time.Hour}
	h, err := pol.Schedule(p, probe, now)
	if err != nil || h.ID != 1 {
		t.Fatalf("warm-up schedule = %v, %v; want host 1 (host 0 is full)", h, err)
	}

	// Exit the full host's VM and immediately re-schedule at the same tick:
	// host 0 is now feasible and non-empty... no — it became empty, so the
	// avoid-empty level must still prefer host 1. Then exit host 1's VM too
	// and the cache must flip the preference to pure tie-break.
	if _, _, err := p.Exit(1); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 1 {
		t.Fatalf("after exit: schedule = %v, %v; want non-empty host 1", h, err)
	}
	if _, _, err := p.Exit(2); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 0 {
		t.Fatalf("all empty: schedule = %v, %v; want lowest-ID host 0", h, err)
	}

	// Replace on the same host in the same tick: place back onto host 0 and
	// the next decision must treat it as non-empty again.
	if err := p.Place(&cluster.VM{ID: 4, Shape: resources.Cores(2, 2*4096, 0), Created: now, TrueLifetime: time.Hour}, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 0 {
		t.Fatalf("after replace: schedule = %v, %v; want non-empty host 0", h, err)
	}
}

// TestScoreCacheRecyclingInvalidation drives a LAVA host through the
// open -> recycling transition (which happens inside OnPlaced, after the
// pool event fired) and checks the cached class scores re-bucket the host.
func TestScoreCacheRecyclingInvalidation(t *testing.T) {
	l := NewLAVA(model.Oracle{}, time.Minute)
	p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))

	// Open host 0 with a long (LC3) VM, then pack it past 90%: it recycles.
	longVM := &cluster.VM{ID: 1, Shape: resources.Cores(8, 8*4096, 0), Created: 0, TrueLifetime: 50 * time.Hour}
	h, err := l.Schedule(p, longVM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Place(longVM, h); err != nil {
		t.Fatal(err)
	}
	l.OnPlaced(p, h, longVM, 0)
	big := &cluster.VM{ID: 2, Shape: resources.Cores(7, 7*4096, 0), Created: 0, TrueLifetime: 50 * time.Hour}
	hb, err := l.Schedule(p, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hb.ID != h.ID {
		t.Fatalf("second long VM on host %d, want co-located on %d", hb.ID, h.ID)
	}
	if err := p.Place(big, hb); err != nil {
		t.Fatal(err)
	}
	l.OnPlaced(p, hb, big, 0)
	if v := HostOf(l, h); v.State != "recycling" {
		t.Fatalf("host state = %v, want recycling at >=90%%", v.State)
	}

	// A short (LC1) VM must now prefer the recycling higher-class host over
	// opening a fresh one (Algorithm 3 level 1) — that preference is only
	// visible if the cache saw the recycling transition.
	short := &cluster.VM{ID: 3, Shape: resources.Cores(1, 4096, 0), Created: 0, TrueLifetime: 30 * time.Minute}
	hs, err := l.Schedule(p, short, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hs.ID != h.ID {
		t.Fatalf("short filler on host %d, want recycling host %d", hs.ID, h.ID)
	}
}

// TestScoreCacheMigrationInvalidation checks Pool.Migrate dirties both ends:
// best-fit scores must reflect the moved load on the next decision.
func TestScoreCacheMigrationInvalidation(t *testing.T) {
	p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))
	pol := NewBestFit()
	v1 := &cluster.VM{ID: 1, Shape: resources.Cores(4, 4*4096, 0), Created: 0, TrueLifetime: time.Hour}
	v2 := &cluster.VM{ID: 2, Shape: resources.Cores(8, 8*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if err := p.Place(v1, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(v2, p.Host(1)); err != nil {
		t.Fatal(err)
	}
	probe := &cluster.VM{ID: 3, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	h, err := pol.Schedule(p, probe, 0)
	if err != nil || h.ID != 1 {
		t.Fatalf("schedule = %v, %v; want fullest host 1", h, err)
	}
	// Move the big VM to host 2: fullest flips from 1 to 2.
	if _, err := p.Migrate(2, p.Host(2)); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, 0)
	if err != nil || h.ID != 2 {
		t.Fatalf("after migrate: schedule = %v, %v; want new fullest host 2", h, err)
	}
}

// TestScoreCacheUnavailableInvalidation checks that a drain claim alone,
// with no InvalidateHost, takes a host out of the cached feasible set
// (Pool.Withdraw) and puts it back (Pool.Restore): the pool publishes the
// availability flips itself.
func TestScoreCacheUnavailableInvalidation(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin()
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("schedule = %v, %v; want host 0", h, err)
	}
	if err := p.Withdraw(0); err != nil {
		t.Fatal(err)
	}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 1 {
		t.Fatalf("withdrawn: schedule = %v, %v; want host 1", h, err)
	}
	if err := p.Restore(0); err != nil {
		t.Fatal(err)
	}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("restored: schedule = %v, %v; want host 0", h, err)
	}
}

// TestEngineSwitchAndReporting exercises SetEngine/EngineOf across the
// policy surface, including releasing the cache and rebinding.
func TestEngineSwitchAndReporting(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(16, 16*4096, 0))
	pol := NewLAVA(model.Oracle{}, time.Minute)
	if EngineOf(pol) != EngineCached {
		t.Fatalf("default engine = %v, want EngineCached", EngineOf(pol))
	}
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	h1, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetEngine(pol, EngineExhaustive)
	if EngineOf(pol) != EngineExhaustive {
		t.Fatalf("engine after switch = %v, want EngineExhaustive", EngineOf(pol))
	}
	h2, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.ID != h2.ID {
		t.Fatalf("engines disagree: cached host %d, exhaustive host %d", h1.ID, h2.ID)
	}
	SetEngine(pol, EngineCached)
	h3, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h3.ID != h1.ID {
		t.Fatalf("rebound cache host %d, want %d", h3.ID, h1.ID)
	}
	// Plain chains have no switch and report the exhaustive engine.
	if e := EngineOf(&Chain{ChainName: "custom"}); e != EngineExhaustive {
		t.Fatalf("plain chain engine = %v, want EngineExhaustive", e)
	}
}

// TestCachedContextEviction schedules more distinct shapes than the context
// cap and verifies decisions stay correct after evicted contexts return.
func TestCachedContextEviction(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(64, 64*4096, 0))
	pol := NewWasteMin()
	anchor := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if err := p.Place(anchor, p.Host(2)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < maxCachedContexts+8; i++ {
			shape := resources.Vector{CPUMilli: int64(1000 + i), MemoryMB: 4096}
			probe := &cluster.VM{ID: cluster.VMID(100 + i), Shape: shape, Created: 0, TrueLifetime: time.Hour}
			h, err := pol.Schedule(p, probe, 0)
			if err != nil {
				t.Fatal(err)
			}
			if h.ID != 2 {
				t.Fatalf("round %d shape %d: host %d, want non-empty host 2", round, i, h.ID)
			}
		}
	}
}

// TestLazyLevelMarkerIgnoresScoreValue pins the "not yet computed" contract
// of the lazy deep levels: whether a value is cached is recorded in its code,
// never read off the value, so a cached 0, -0, NaN or ±Inf is served — not
// re-scored — until the host is dirtied, bit for bit (a NaN keeps its
// payload, -0 its sign), and the decision matches the exhaustive engine.
func TestLazyLevelMarkerIgnoresScoreValue(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	deep := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), payloadNaN, math.Copysign(0, -1)}
	calls := 0
	mk := func() *CachedChain {
		return NewCachedChain(Chain{ChainName: "marker", Scorers: []Scorer{
			ScorerFunc{FuncName: "flat", F: func(*cluster.Host, *cluster.VM, time.Duration) float64 { return 0 }},
			ScorerFunc{FuncName: "deep", F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
				calls++
				return deep[h.ID]
			}},
		}}, nil, nil)
	}
	p := cluster.NewPool("t", len(deep), resources.Cores(16, 16*4096, 0))
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), TrueLifetime: time.Hour}
	ref := mk()
	ref.SetEngine(EngineExhaustive)
	want, err := ref.Schedule(p, probe, 0)
	if err != nil || want.ID != 3 {
		t.Fatalf("exhaustive: %v, %v; want host 3 (-Inf beats 0; NaN and +Inf drop out)", want, err)
	}
	pol := mk()
	for i, wantCalls := range []int{len(deep), 0, 1} {
		if i == 2 {
			p.InvalidateHost(1) // the NaN host: only it is re-scored
		}
		calls = 0
		got, err := pol.Schedule(p, probe, 0)
		if err != nil || got.ID != want.ID {
			t.Fatalf("schedule %d: %v, %v; want host %d", i, got, err, want.ID)
		}
		if calls != wantCalls {
			t.Fatalf("schedule %d: deep level scored %d times, want %d", i, calls, wantCalls)
		}
	}
	if st := pol.CacheStats(); st.LazyEvals != int64(len(deep))+1 || st.HostsResynced != 1 || st.Rebuilds != 1 {
		t.Fatalf("counters: %+v", st)
	}
	cs := pol.list[0]
	for id, v := range deep {
		code := cs.cols[0][id] // level 1's column
		if code == 0 {
			t.Fatalf("host %d: level 1 not cached", id)
		}
		if got := cs.tabs[1][code-1]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("host %d: cached %#x, scored %#x", id, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

// TestCodeColumnGrowth pins how a code column follows the hosts the filter
// reads. It starts empty, so the first reads lie past its end and count as
// not cached; it grows to cover the highest candidate ID, doubling and capped
// at the pool; a host past the old end is scored once, the rest are served;
// and after an epoch rollover truncates the column, regrowing it inside the
// capacity it kept reads every entry afresh, never a code of the old epoch.
func TestCodeColumnGrowth(t *testing.T) {
	const hosts, epoch = 130, time.Hour
	calls := 0
	mk := func() *CachedChain {
		c := NewCachedChain(Chain{ChainName: "grow", Scorers: []Scorer{
			ScorerFunc{FuncName: "flat", F: func(*cluster.Host, *cluster.VM, time.Duration) float64 { return 0 }},
			ScorerFunc{FuncName: "deep", F: func(h *cluster.Host, _ *cluster.VM, now time.Duration) float64 {
				calls++
				return float64((int(h.ID) + int(now/epoch)) % 3)
			}},
		}}, nil, nil)
		c.Epoch = epoch
		return c
	}
	pol, ref := mk(), mk()
	ref.SetEngine(EngineExhaustive)
	p := cluster.NewPool("t", hosts, resources.Cores(16, 16*4096, 0))
	restore := func(id cluster.HostID) {
		if err := p.Restore(id); err != nil {
			t.Fatal(err)
		}
	}
	withdraw := func(id cluster.HostID) {
		if err := p.Withdraw(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := 10; id < hosts; id++ {
		withdraw(cluster.HostID(id))
	}
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), TrueLifetime: time.Hour}
	for i, tc := range []struct {
		now             time.Duration
		before          func()
		calls, len, cap int
	}{
		{0, nil, 10, 10, 10},                                        // every read past the empty column's end
		{0, nil, 0, 10, 10},                                         // all served
		{0, func() { restore(100) }, 1, 101, 101},                   // only host 100 lies past the end
		{0, func() { restore(125); restore(127) }, 2, hosts, hosts}, // doubling, capped at the pool
		{epoch, func() { withdraw(127) }, 12, 126, hosts},           // rollover: truncated, regrown in place
		{epoch, func() { restore(127) }, 1, hosts, hosts},           // host 127's old-epoch code is gone
	} {
		if tc.before != nil {
			tc.before()
		}
		want, err := ref.Schedule(p, probe, tc.now)
		if err != nil {
			t.Fatal(err)
		}
		calls = 0
		before := pol.CacheStats().LazyEvals
		got, err := pol.Schedule(p, probe, tc.now)
		if err != nil || got.ID != want.ID {
			t.Fatalf("step %d: cached %v, %v; exhaustive host %d", i, got, err, want.ID)
		}
		col := pol.list[0].cols[0]
		lazy := pol.CacheStats().LazyEvals - before
		if calls != tc.calls || lazy != int64(tc.calls) || len(col) != tc.len || cap(col) != tc.cap {
			t.Fatalf("step %d: %d calls, %d lazy evals, column len %d cap %d; want %d calls, len %d cap %d",
				i, calls, lazy, len(col), cap(col), tc.calls, tc.len, tc.cap)
		}
	}
}

// TestCachedMatchesExhaustiveTopHeavy is the differential on a pool whose
// lowest host IDs are withdrawn, so every occupied host sits at the top of
// the ID range and the code columns must grow from empty to reach it. Four
// arms share one random stream — cached and exhaustive, untraced and traced
// — and must decide, capture and call the model alike at every step. At the
// end, the untraced cached arm's columns reach into the occupied range and
// never past the pool.
func TestCachedMatchesExhaustiveTopHeavy(t *testing.T) {
	const hosts, withdrawn = 200, 160
	for _, name := range []string{"wastemin", "bestfit", "nilas", "lava", "nilas-epoch", "lava-epoch", "odd-scores"} {
		t.Run(name, func(t *testing.T) {
			mk := cachedPolicies()[name]
			arms := [4]*twin{
				newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
				newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
			}
			for i, tw := range arms {
				for id := 0; id < withdrawn; id++ {
					if err := tw.p.Withdraw(cluster.HostID(id)); err != nil {
						t.Fatal(err)
					}
				}
				if i >= 2 && !EnableTrace(tw.pol, 3) {
					t.Fatalf("%s does not support tracing", name)
				}
			}
			rng := rand.New(rand.NewSource(3))
			var live [][4]*cluster.VM
			now := time.Duration(0)
			for step := 0; step < 400; step++ {
				now += time.Duration(rng.Intn(20)) * time.Minute
				for _, tw := range arms {
					tw.pol.OnTick(tw.p, now)
				}
				if len(live) > 0 && rng.Intn(5) < 2 {
					k := rng.Intn(len(live))
					for i, tw := range arms {
						h, _, err := tw.p.Exit(live[k][i].ID)
						if err != nil {
							t.Fatal(err)
						}
						tw.pol.OnExited(tw.p, h, live[k][i], now)
					}
					live = append(live[:k], live[k+1:]...)
					continue
				}
				id, cores := cluster.VMID(step+1), int64(1+rng.Intn(8))
				life := time.Duration(10+rng.Intn(900)) * time.Minute
				var vms [4]*cluster.VM
				var got [4]cluster.HostID
				for i, tw := range arms {
					vms[i] = tw.vm(id, cores, now, life)
					got[i] = -1
					if h, err := tw.pol.Schedule(tw.p, vms[i], now); err == nil {
						got[i] = h.ID
					}
				}
				if got[1] != got[0] || got[2] != got[0] || got[3] != got[0] {
					t.Fatalf("step %d: hosts cached/exhaustive/traced cached/traced exhaustive = %v", step, got)
				}
				if ca, cb := CaptureOf(arms[2].pol), CaptureOf(arms[3].pol); !captureEq(ca, cb) {
					t.Fatalf("step %d: capture divergence:\n cached:     %+v\n exhaustive: %+v", step, ca, cb)
				}
				if got[0] < 0 {
					continue
				}
				for i, tw := range arms {
					h := tw.p.Host(got[0])
					if err := tw.p.Place(vms[i], h); err != nil {
						t.Fatal(err)
					}
					tw.pol.OnPlaced(tw.p, h, vms[i], now)
				}
				live = append(live, vms)
				if err := checkBuckets(arms[0].pol.(interface{ cached() *CachedChain }).cached()); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if mc, ok := arms[0].pol.(interface{ ModelCalls() int64 }); ok {
				for i, tw := range arms[1:] {
					if c := tw.pol.(interface{ ModelCalls() int64 }).ModelCalls(); c != mc.ModelCalls() {
						t.Errorf("arm %d: %d model calls, cached arm %d", i+1, c, mc.ModelCalls())
					}
				}
			}
			reach := 0
			for _, cs := range arms[0].pol.(interface{ cached() *CachedChain }).cached().list {
				for _, col := range cs.cols {
					if cap(col) > hosts {
						t.Fatalf("context %+v: column capacity %d on a pool of %d", cs.ctx, cap(col), hosts)
					}
					reach = max(reach, len(col))
				}
			}
			if reach <= withdrawn {
				t.Errorf("columns reach host %d, short of the occupied range from %d", reach, withdrawn)
			}
		})
	}
}

// TestValueTableOverflow runs a static level with more distinct values than
// a code can name — float64(h.ID) on a pool well over 255 hosts — through a
// stream of placements and exits that keeps dirtying hosts. A full table
// resets its level and the filter goes on reading fresh codes, so every
// decision still matches the exhaustive engine's.
func TestValueTableOverflow(t *testing.T) {
	const hosts = 640
	mk := func() Policy {
		return NewCachedChain(Chain{ChainName: "by-id", Scorers: []Scorer{
			ScorerFunc{FuncName: "avoid-empty", F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
				if h.NumVMs() == 0 {
					return 1
				}
				return 0
			}},
			ScorerFunc{FuncName: "id", F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
				return float64(hosts - 1 - int(h.ID)) // highest ID first: a fill reads the bucket's tail
			}},
		}}, nil, nil)
	}
	a, b := newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive)
	rng := rand.New(rand.NewSource(1))
	var live [][2]*cluster.VM
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			for i, tw := range []*twin{a, b} {
				if _, _, err := tw.p.Exit(live[k][i].ID); err != nil {
					t.Fatal(err)
				}
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		id, cores := cluster.VMID(step), int64(1+rng.Intn(8))
		va, vb := a.vm(id, cores, 0, time.Hour), b.vm(id, cores, 0, time.Hour)
		ha, errA := a.pol.Schedule(a.p, va, 0)
		hb, errB := b.pol.Schedule(b.p, vb, 0)
		if errA != nil || errB != nil || ha.ID != hb.ID {
			t.Fatalf("step %d: cached %v, %v; exhaustive %v, %v", step, ha, errA, hb, errB)
		}
		if err := a.p.Place(va, ha); err != nil {
			t.Fatal(err)
		}
		if err := b.p.Place(vb, hb); err != nil {
			t.Fatal(err)
		}
		live = append(live, [2]*cluster.VM{va, vb})
	}
	if st := CacheStatsOf(a.pol); st.CodeResets == 0 {
		t.Fatalf("no table ever overflowed: %+v", st)
	}
}

// TestEpochRolloverReadsFreshScores drives an epoch-pure level — one whose
// score moves only when the clock crosses an epoch boundary — through the
// two rollover edges: a context that sat idle across several boundaries, and
// a host changed in the very tick the boundary falls on. At level 0 the
// level keys the buckets and the chain sets Epoch, so each rollover rebuilds
// the context; below it the level is Dynamic, scored on every decision, and
// the context never rolls over, which the counters show.
func TestEpochRolloverReadsFreshScores(t *testing.T) {
	const epoch = time.Hour
	// Pure within an epoch; the winner rotates with the epoch index.
	grid := ScorerFunc{FuncName: "grid", F: func(h *cluster.Host, _ *cluster.VM, now time.Duration) float64 {
		return float64((int(now/epoch) + int(h.ID) + h.NumVMs()) % 3)
	}}
	flat := ScorerFunc{FuncName: "flat", F: func(*cluster.Host, *cluster.VM, time.Duration) float64 { return 0 }}
	for _, tc := range []struct {
		name    string
		scorers []Scorer
		dynamic []bool
		epoch   time.Duration
	}{
		{"epoch-level-0", []Scorer{grid, flat}, nil, epoch},
		{"epoch-level-1", []Scorer{flat, grid}, []bool{false, true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))
			pol := &CachedChain{Chain: Chain{ChainName: tc.name, Scorers: tc.scorers}, Dynamic: tc.dynamic, Epoch: tc.epoch}
			ref := &Chain{ChainName: tc.name, Scorers: tc.scorers}
			probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), TrueLifetime: time.Hour}
			check := func(now time.Duration, wantHost cluster.HostID) {
				t.Helper()
				want, err := ref.Schedule(p, probe, now)
				if err != nil || want.ID != wantHost {
					t.Fatalf("t=%v exhaustive: %v, %v; want host %d", now, want, err, wantHost)
				}
				if got, err := pol.Schedule(p, probe, now); err != nil || got.ID != wantHost {
					t.Fatalf("t=%v cached: %v, %v; want host %d", now, got, err, wantHost)
				}
			}
			check(0, 0)                       // epoch 0: host 0 scores 0
			check(30*time.Minute, 0)          // same epoch, served from cache
			check(2*epoch+time.Minute, 1)     // idle across two boundaries: (2+1)%3 == 0
			check(4*epoch-time.Nanosecond, 0) // epoch 3
			// The tick of the boundary into epoch 4 also places a VM on the
			// host that would have won it ((4+2)%3 == 0): hosts 0 and 2 now
			// tie at 1 and the lower ID wins.
			now := 4 * epoch
			if err := p.Place(&cluster.VM{ID: 2, Shape: probe.Shape, Created: now, TrueLifetime: time.Hour}, p.Host(2)); err != nil {
				t.Fatal(err)
			}
			check(now, 0)
			st := pol.CacheStats()
			wantRollovers := int64(0)
			if tc.epoch > 0 {
				wantRollovers = 3
			}
			if st.Rollovers != wantRollovers || st.Rebuilds != 1+wantRollovers || st.ColdBuilds != 1 || st.Contexts != 1 {
				t.Fatalf("counters: %+v, want %d rollovers and %d rebuilds", st, wantRollovers, 1+wantRollovers)
			}
		})
	}
}

// TestEpsilonOrderAdversaries pins the epsilon rule where "within epsilon of
// the minimum" and what the filter does part ways, on both engines, through
// Schedule. The rule keeps a candidate within epsilon of the *running* best
// in host-ID order, so a score can survive that is further than epsilon from
// the level's minimum; NaN compares false both ways, so it wins only by
// coming first; infinities and signed zeros tie with themselves. Each case
// lists per-level scores by host ID below a flat level 0, the winner, and
// the hosts the last level must be asked about — the survivors of the level
// above it.
func TestEpsilonOrderAdversaries(t *testing.T) {
	const e = ScoreEpsilon
	nan, inf := math.NaN(), math.Inf(1)
	flat := []float64{0, 0, 0, 0, 0}
	nine := [][]float64{flat, flat, flat, flat, flat, flat, flat, {3, 1, 2, 1, 5}}
	for _, tc := range []struct {
		name   string
		levels [][]float64 // levels 1.. by host ID
		want   cluster.HostID
		last   []cluster.HostID
	}{
		// Best settles at host 2's 0.7e, so 1.5e survives; the minimum is 0.
		{"running-best", [][]float64{{2.5 * e, 1.6 * e, 0.7 * e, 0, 1.5 * e}, {4, 3, 2, 1, 0}}, 4, []cluster.HostID{2, 3, 4}},
		{"nan-first", [][]float64{{nan, 0, 1, -1, 0}, flat}, 0, nil},
		{"nan-later", [][]float64{{1, nan, 0, nan, 0}, {0, 0, 1, 0, 0}}, 4, []cluster.HostID{2, 4}},
		{"infinities", [][]float64{{inf, -inf, 0, -inf, inf}, {0, 1, 0, 0, 0}}, 3, []cluster.HostID{1, 3}},
		{"plus-inf-ties", [][]float64{{inf, inf, inf, inf, inf}, {1, 1, 0, 1, 1}}, 2, []cluster.HostID{0, 1, 2, 3, 4}},
		{"signed-zero", [][]float64{{0, math.Copysign(0, -1), 1, 0, 2}, {1, 0, 0, 1, 0}}, 1, []cluster.HostID{0, 1, 3}},
		// A ninth level is cached like every other static level.
		{"nine-levels", nine, 1, []cluster.HostID{0, 1, 2, 3, 4}},
	} {
		for _, eng := range []Engine{EngineCached, EngineExhaustive} {
			var seen []cluster.HostID
			scorers := []Scorer{ScorerFunc{FuncName: "flat", F: func(*cluster.Host, *cluster.VM, time.Duration) float64 { return 0 }}}
			for li, vals := range tc.levels {
				vals, last := vals, li == len(tc.levels)-1
				scorers = append(scorers, ScorerFunc{FuncName: "by-id", F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
					if last {
						seen = append(seen, h.ID)
					}
					return vals[h.ID]
				}})
			}
			pol := NewCachedChain(Chain{ChainName: tc.name, Scorers: scorers}, nil, nil)
			pol.SetEngine(eng)
			p := cluster.NewPool("t", len(flat), resources.Cores(16, 16*4096, 0))
			probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), TrueLifetime: time.Hour}
			for round := 0; round < 2; round++ {
				seen = nil
				got, err := pol.Schedule(p, probe, 0)
				if err != nil || got.ID != tc.want {
					t.Errorf("%s engine %d round %d: %v, %v; want host %d", tc.name, eng, round, got, err, tc.want)
				}
				want := tc.last
				if eng == EngineCached && round == 1 {
					want = nil // served from the cached column
				}
				if !slices.Equal(seen, want) {
					t.Errorf("%s engine %d round %d: last level asked about hosts %v, want %v", tc.name, eng, round, seen, want)
				}
			}
		}
	}
}

// TestCachedMatchesExhaustiveSparse is the differential where the blank
// shortcut fires: a mostly blank pool whose large, short-lived VMs keep
// opening hosts that drain again, with out-of-band withdrawals and bare
// pool.Exit calls (no OnExited) among the exits, some followed by a
// defrag-style release of the drained host. Four arms share one random
// stream — cached and exhaustive, untraced and traced — and must decide
// alike at every step; the traced arms must capture alike too. The untraced
// cached arm must take the shortcut, the traced one never does, and a pool
// grown by hosts of a second capacity never takes it either.
func TestCachedMatchesExhaustiveSparse(t *testing.T) {
	for _, name := range []string{"wastemin", "bestfit", "nilas-epoch", "lava-epoch"} {
		mk := cachedPolicies()[name]
		for _, mixed := range []bool{false, true} {
			sub := name + "/one-capacity"
			if mixed {
				sub = name + "/two-capacities"
			}
			t.Run(sub, func(t *testing.T) {
				var picks, tracedPicks int64
				f := func(seed int64) bool {
					rng := rand.New(rand.NewSource(seed))
					const hosts = 40
					arms := [4]*twin{
						newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
						newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
					}
					for i, tw := range arms {
						if mixed {
							tw.p.AddHosts(4, resources.Cores(32, 32*4096, 0))
						}
						if i >= 2 && !EnableTrace(tw.pol, 3) {
							t.Fatalf("%s does not support tracing", name)
						}
					}
					var live []cluster.VMID
					vms := map[cluster.VMID][]*cluster.VM{}
					now := time.Duration(0)
					for step := 0; step < 200; step++ {
						now += time.Duration(rng.Intn(40)) * time.Minute
						for _, tw := range arms {
							tw.pol.OnTick(tw.p, now)
						}
						switch r := rng.Float64(); {
						case r < 0.5 || len(live) == 0: // arrival, mostly too big to share a host
							id := cluster.VMID(100000*seed + int64(step))
							cores := int64(4 + rng.Intn(13))
							life := time.Duration(10+rng.Intn(600)) * time.Minute
							var got []cluster.HostID
							var placed []*cluster.VM
							for _, tw := range arms {
								vm := tw.vm(id, cores, now, life)
								h, err := tw.pol.Schedule(tw.p, vm, now)
								if err != nil {
									got = append(got, -1)
									continue
								}
								got = append(got, h.ID)
								placed = append(placed, vm)
							}
							if got[1] != got[0] || got[2] != got[0] || got[3] != got[0] {
								t.Logf("step %d: hosts cached/exhaustive/traced cached/traced exhaustive = %v", step, got)
								return false
							}
							if ca, cb := CaptureOf(arms[2].pol), CaptureOf(arms[3].pol); !captureEq(ca, cb) {
								t.Logf("step %d: capture divergence:\n cached:     %+v\n exhaustive: %+v", step, ca, cb)
								return false
							}
							if got[0] < 0 {
								continue
							}
							for i, tw := range arms {
								h := tw.p.Host(got[0])
								if err := tw.p.Place(placed[i], h); err != nil {
									t.Fatal(err)
								}
								tw.pol.OnPlaced(tw.p, h, placed[i], now)
							}
							live = append(live, id)
							vms[id] = placed
						case r < 0.95: // exit; some skip the policy hook
							i := rng.Intn(len(live))
							id := live[i]
							live = append(live[:i], live[i+1:]...)
							how := rng.Intn(5)
							for i, tw := range arms {
								h, _, err := tw.p.Exit(id)
								switch {
								case err != nil:
									t.Fatal(err)
								case how > 1:
									tw.pol.OnExited(tw.p, h, vms[id][i], now)
								case how == 1 && h.Empty():
									// Released the way defrag releases a
									// drained host: no hook, and no reset.
									tw.p.InvalidateHost(h.ID)
								}
							}
							delete(vms, id)
						default: // withdraw/restore a host out of band
							id := cluster.HostID(rng.Intn(hosts))
							for _, tw := range arms {
								toggleDrain(t, tw.p, id)
							}
						}
						for _, i := range []int{0, 2} {
							if err := checkBuckets(arms[i].pol.(interface{ cached() *CachedChain }).cached()); err != nil {
								t.Logf("step %d, arm %d: %v", step, i, err)
								return false
							}
						}
					}
					picks += CacheStatsOf(arms[0].pol).BlankPicks
					tracedPicks += CacheStatsOf(arms[2].pol).BlankPicks
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
					t.Fatal(err)
				}
				if mixed && picks != 0 || !mixed && picks == 0 || tracedPicks != 0 {
					t.Errorf("blank picks: untraced cached %d, traced cached %d", picks, tracedPicks)
				}
			})
		}
	}
}

func (c *CachedChain) cached() *CachedChain { return c }

// TestLAVAEpochDynamicLevel runs lava-epoch, whose epoch level is dynamic
// and marked, across many epoch boundaries on a pool its large VMs keep
// mostly blank. Four arms share one random stream — cached and exhaustive,
// untraced and traced — and must decide alike at every step, with equal
// model-call counts; the traced arms must capture alike. The epoch level
// must decide some placements (a capture at level 1), the untraced cached
// arm must take the blank shortcut through the marked dynamic level, and no
// context ever rolls over or rebuilds after its cold build.
func TestLAVAEpochDynamicLevel(t *testing.T) {
	mk := cachedPolicies()["lava-epoch"]
	const hosts = 24
	arms := [4]*twin{
		newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
		newTwin(hosts, mk, EngineCached), newTwin(hosts, mk, EngineExhaustive),
	}
	for _, tw := range arms[2:] {
		if !EnableTrace(tw.pol, 3) {
			t.Fatal("lava-epoch does not support tracing")
		}
	}
	rng := rand.New(rand.NewSource(7))
	var live [][4]*cluster.VM
	now, byEpoch := time.Duration(0), 0
	for step := 0; step < 600; step++ {
		now += time.Duration(rng.Intn(20)) * time.Minute
		for _, tw := range arms {
			tw.pol.OnTick(tw.p, now)
		}
		if len(live) > 0 && rng.Intn(5) < 2 {
			k := rng.Intn(len(live))
			for i, tw := range arms {
				h, _, err := tw.p.Exit(live[k][i].ID)
				if err != nil {
					t.Fatal(err)
				}
				tw.pol.OnExited(tw.p, h, live[k][i], now)
			}
			live = append(live[:k], live[k+1:]...)
			continue
		}
		id, cores := cluster.VMID(step+1), int64(2+rng.Intn(15))
		life := time.Duration(10+rng.Intn(900)) * time.Minute
		var vms [4]*cluster.VM
		var got [4]cluster.HostID
		for i, tw := range arms {
			vms[i] = tw.vm(id, cores, now, life)
			got[i] = -1
			if h, err := tw.pol.Schedule(tw.p, vms[i], now); err == nil {
				got[i] = h.ID
			}
		}
		if got[1] != got[0] || got[2] != got[0] || got[3] != got[0] {
			t.Fatalf("step %d: hosts cached/exhaustive/traced cached/traced exhaustive = %v", step, got)
		}
		ca, cb := CaptureOf(arms[2].pol), CaptureOf(arms[3].pol)
		if !captureEq(ca, cb) {
			t.Fatalf("step %d: capture divergence:\n cached:     %+v\n exhaustive: %+v", step, ca, cb)
		}
		if ca.Level == 1 {
			byEpoch++
		}
		if got[0] < 0 {
			continue
		}
		for i, tw := range arms {
			h := tw.p.Host(got[0])
			if err := tw.p.Place(vms[i], h); err != nil {
				t.Fatal(err)
			}
			tw.pol.OnPlaced(tw.p, h, vms[i], now)
		}
		live = append(live, vms)
		if err := checkBuckets(arms[0].pol.(*LAVA).cached()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	calls := arms[0].pol.(*LAVA).ModelCalls()
	for i, tw := range arms[1:] {
		if c := tw.pol.(*LAVA).ModelCalls(); c != calls {
			t.Errorf("arm %d: %d model calls, cached arm %d", i+1, c, calls)
		}
	}
	st := CacheStatsOf(arms[0].pol)
	if now < 8*DefaultEpoch || st.BlankPicks == 0 || st.Rollovers != 0 || st.Rebuilds != st.ColdBuilds || byEpoch == 0 {
		t.Errorf("ran to %v: %d decisions by the epoch level, counters %+v", now, byEpoch, st)
	}
}

// TestExactTemporalTakesNoShortcut pins the other side of the marker rule.
// Exact NILAS and LAVA keep their temporal cost unmarked, because it may
// call the model, so on a pool where every decision opens a host their
// cached engine walks the winning bucket and never takes the blank
// shortcut. lava-epoch takes it on every decision, and a copy of it whose
// epoch level lost the marker takes it on none. Decisions and model calls
// match the exhaustive engine's throughout.
func TestExactTemporalTakesNoShortcut(t *testing.T) {
	unmarked := func() Policy {
		l := NewLAVAEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
		f := l.Scorers[1].(ScorerFunc)
		l.Scorers[1] = ScorerFunc{FuncName: f.FuncName, F: f.F}
		return l
	}
	for _, tc := range []struct {
		name  string
		mk    func() Policy
		picks bool
	}{
		{"nilas", cachedPolicies()["nilas"], false},
		{"lava", cachedPolicies()["lava"], false},
		{"lava-epoch", cachedPolicies()["lava-epoch"], true},
		{"lava-epoch-unmarked", unmarked, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const hosts = 32
			a, b := newTwin(hosts, tc.mk, EngineCached), newTwin(hosts, tc.mk, EngineExhaustive)
			// One host in four runs a VM of 9 cores; every op places one of
			// 8, which fits only on an empty host, and then exits it.
			for i, tw := range []*twin{a, b} {
				for id := 0; id < hosts; id += 4 {
					vm := tw.vm(cluster.VMID(id+1), 9, 0, 1000*time.Hour)
					h := tw.p.Host(cluster.HostID(id))
					if err := tw.p.Place(vm, h); err != nil {
						t.Fatal(i, err)
					}
					tw.pol.OnPlaced(tw.p, h, vm, 0)
				}
			}
			const ops = 40
			for op := 0; op < ops; op++ {
				now := time.Duration(op) * 37 * time.Minute
				var got [2]*cluster.Host
				var vms [2]*cluster.VM
				for i, tw := range []*twin{a, b} {
					vms[i] = tw.vm(cluster.VMID(1000+op), 8, now, time.Duration(1+op%7)*time.Hour)
					h, err := tw.pol.Schedule(tw.p, vms[i], now)
					if err != nil || !h.Empty() {
						t.Fatalf("op %d: host %v, err %v; want an empty host", op, h, err)
					}
					got[i] = h
				}
				if got[0].ID != got[1].ID {
					t.Fatalf("op %d: cached host %d, exhaustive host %d", op, got[0].ID, got[1].ID)
				}
				for i, tw := range []*twin{a, b} {
					if err := tw.p.Place(vms[i], got[i]); err != nil {
						t.Fatal(err)
					}
					tw.pol.OnPlaced(tw.p, got[i], vms[i], now)
					if _, _, err := tw.p.Exit(vms[i].ID); err != nil {
						t.Fatal(err)
					}
					tw.pol.OnExited(tw.p, got[i], vms[i], now)
				}
			}
			if ca, cb := a.pol.(interface{ ModelCalls() int64 }).ModelCalls(), b.pol.(interface{ ModelCalls() int64 }).ModelCalls(); ca != cb {
				t.Errorf("model calls: cached %d, exhaustive %d", ca, cb)
			}
			want := int64(0)
			if tc.picks {
				want = ops
			}
			if st := CacheStatsOf(a.pol); st.BlankPicks != want {
				t.Errorf("blank picks %d, want %d: %+v", st.BlankPicks, want, st)
			}
		})
	}
}

// TestJournalTrimResync pins the change journal: a context re-derives
// exactly the hosts changed since its own last sync, each once, whether it
// finds its sync point in the journal or, idle across a trim, reads the
// hosts' stamps instead; and a rebind starts every context from a cold
// build without replaying the stamps it reuses.
func TestJournalTrimResync(t *testing.T) {
	const hosts = 16
	var scored []cluster.HostID
	pol := NewCachedChain(Chain{ChainName: "journal", Scorers: []Scorer{
		ScorerFunc{FuncName: "load", F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
			scored = append(scored, h.ID)
			return float64(h.NumVMs())
		}},
		ScorerFunc{FuncName: "flat", F: func(*cluster.Host, *cluster.VM, time.Duration) float64 { return 0 }},
	}}, nil, nil)
	p := cluster.NewPool("t", hosts, resources.Cores(16, 16*4096, 0))
	small := &cluster.VM{ID: 1, Shape: resources.Cores(1, 4096, 0), TrueLifetime: time.Hour}
	big := &cluster.VM{ID: 2, Shape: resources.Cores(2, 2*4096, 0), TrueLifetime: time.Hour}
	all := make([]cluster.HostID, hosts)
	for i := range all {
		all[i] = cluster.HostID(i)
	}
	// resync schedules vm and checks that level 0 re-scored exactly want,
	// each host once, and that HostsResynced counted them.
	resync := func(vm *cluster.VM, cold bool, want ...cluster.HostID) {
		t.Helper()
		scored = nil
		before := pol.CacheStats()
		if _, err := pol.Schedule(p, vm, 0); err != nil {
			t.Fatal(err)
		}
		if err := checkBuckets(pol); err != nil {
			t.Fatal(err)
		}
		slices.Sort(scored)
		if !slices.Equal(scored, want) {
			t.Fatalf("%v context re-scored hosts %v, want %v", vm.Shape, scored, want)
		}
		st := pol.CacheStats()
		wantResynced := int64(len(want))
		if cold {
			wantResynced = 0 // a cold build is a rebuild, not a resync
		}
		if st.HostsResynced-before.HostsResynced != wantResynced || (st.ColdBuilds > before.ColdBuilds) != cold {
			t.Fatalf("counters %+v after %+v", st, before)
		}
	}
	touch := func(times int, ids ...cluster.HostID) {
		for range times {
			for _, id := range ids {
				p.InvalidateHost(id)
			}
		}
	}
	behind := func(vm *cluster.VM) bool { return pol.sets[CacheContext{Shape: vm.Shape}].synced < pol.base }

	resync(small, true, all...)
	resync(big, true, all...)
	touch(3, 4, 9)
	if behind(small) || behind(big) {
		t.Fatal("journal trimmed after six events")
	}
	resync(small, false, 4, 9) // found in the journal
	// big sits idle while five hosts take 40 events, past a trim.
	touch(8, 1, 2, 3, 4, 5)
	if !behind(small) || !behind(big) {
		t.Fatalf("journal never trimmed past the contexts: base %d", pol.base)
	}
	resync(big, false, 1, 2, 3, 4, 5, 9) // read off the stamps
	touch(1, 7)
	resync(big, false, 7) // found in the journal again
	resync(small, false, 1, 2, 3, 4, 5, 7)
	resync(small, false)

	// A rebind reuses the stamps; the contexts built after it start past them.
	pol.SetEngine(EngineExhaustive)
	pol.SetEngine(EngineCached)
	resync(small, true, all...)
	touch(2, 11)
	resync(small, false, 11)
	resync(big, true, all...)
}

// checkBuckets cross-checks every context of c: each bucket's member and
// blank counts against its bitset and the membership bitsets, every member
// in exactly one bucket, and the membership state of every host with no
// journaled event since the context's last sync against the host itself.
func checkBuckets(c *CachedChain) error {
	for _, cs := range c.list {
		in := make([]int, len(c.hosts)) // buckets holding each host
		for _, b := range cs.bkts {
			n, blanks := 0, 0
			for w, word := range b.bits {
				for ; word != 0; word &= word - 1 {
					id := w<<6 | bits.TrailingZeros64(word)
					n++
					in[id]++
					if bitAt(cs.blank, id) {
						blanks++
					}
				}
			}
			if n != b.n || blanks != b.blanks {
				return fmt.Errorf("context %+v bucket %v: counts %d/%d blank, bitset %d/%d", cs.ctx, b.key, b.n, b.blanks, n, blanks)
			}
		}
		for id := range c.hosts {
			member, isBlank := bitAt(cs.member, id), bitAt(cs.blank, id)
			if isBlank && !member || in[id] > 1 || (in[id] == 1) != member {
				return fmt.Errorf("context %+v host %d: member %v, blank %v, in %d buckets", cs.ctx, id, member, isBlank, in[id])
			}
		}
		if cs.allDirty {
			continue
		}
		for id, h := range c.hosts {
			if c.lastAt[id] > cs.synced {
				continue
			}
			wantMember := !h.Unavailable() && h.Fits(cs.ctx.Shape)
			wantBlank := wantMember && c.blankOK && h.Empty()
			if member, isBlank := bitAt(cs.member, id), bitAt(cs.blank, id); member != wantMember || isBlank != wantBlank {
				return fmt.Errorf("context %+v host %d: member %v blank %v, want %v %v", cs.ctx, id, member, isBlank, wantMember, wantBlank)
			}
		}
	}
	return nil
}

// bitAt reads host id's bit of a membership bitset.
func bitAt(set []uint64, id int) bool { return set[id>>6]&(uint64(1)<<(id&63)) != 0 }
