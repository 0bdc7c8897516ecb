package scheduler

import (
	"math"
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
						if srcA == nil || srcA.ID == dst || !a.p.Host(dst).Fits(pair[0].Shape) || a.p.Host(dst).Unavailable {
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
						fl := !a.p.Host(id).Unavailable
						a.p.Host(id).Unavailable = fl
						a.p.InvalidateHost(id)
						b.p.Host(id).Unavailable = fl
						b.p.InvalidateHost(id)
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
	if h.State != cluster.StateRecycling {
		t.Fatalf("host state = %v, want recycling at >=90%%", h.State)
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

// TestScoreCacheUnavailableInvalidation checks the explicit InvalidateHost
// escape hatch: out-of-band availability flips enter the cached feasible
// set only through it.
func TestScoreCacheUnavailableInvalidation(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin()
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("schedule = %v, %v; want host 0", h, err)
	}
	p.Host(0).Unavailable = true
	p.InvalidateHost(0)
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 1 {
		t.Fatalf("withdrawn: schedule = %v, %v; want host 1", h, err)
	}
	p.Host(0).Unavailable = false
	p.InvalidateHost(0)
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
		code := cs.codes[id] // level 1's column
		if code == 0 {
			t.Fatalf("host %d: level 1 not cached", id)
		}
		if got := cs.tabs[1][code-1]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("host %d: cached %#x, scored %#x", id, math.Float64bits(got), math.Float64bits(v))
		}
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
// a host dirtied in the very tick the boundary falls on. At level 0 the
// rollover rebuilds the context; below it, only that level's cached values
// go, which the counters show.
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
		level   int
	}{
		{"epoch-level-0", []Scorer{grid, flat}, 0},
		{"epoch-level-1", []Scorer{flat, grid}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))
			pol := &CachedChain{Chain: Chain{ChainName: tc.name, Scorers: tc.scorers}, Epoch: epoch, epochLevel: tc.level}
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
			wantRebuilds := int64(1) // the cold build
			if tc.level == 0 {
				wantRebuilds += st.Rollovers
			}
			if st.Rollovers != 3 || st.Rebuilds != wantRebuilds || st.ColdBuilds != 1 || st.Contexts != 1 {
				t.Fatalf("counters: %+v, want 3 rollovers and %d rebuilds", st, wantRebuilds)
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
	const e = scoreEpsilon
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
