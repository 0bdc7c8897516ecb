// Pool-scale placement benchmarks: the placement hot path measured directly
// (Schedule + Place + policy hooks, with paired exits holding occupancy
// steady) at 1k and 10k hosts, for the incremental score-cache engine vs
// the exhaustive reference. Sub-benchmark names are benchstat-comparable:
//
//	go test -run '^$' -bench BenchmarkScalePlacement -count=6 . | tee new.txt
//	benchstat old.txt new.txt
//
// Every cell has a steady-state row — each cache context the arrival ring
// will use is built before the timer starts, so a short run and a long one
// time the same thing — and the cached engine adds a cold-context row, the
// O(hosts) price of a context's first decision. The acceptance bar for the
// cache (see DESIGN.md §6) is >= 2x over the exhaustive engine at 10k hosts
// on the fig6 workload mix, steady state; CI's bench-gate holds the cached
// steady-state rows against regressions, their cache-B row (the cache's live
// bytes at the end of the run, CacheStats.Bytes) included. The full
// 1k/10k/50k sweep with end-to-end replays lives in `cmd/experiments -exp
// scale`.
package lava

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/trace"
	"lava/internal/workload"
)

// scaleFixture is a steady-state pool plus a ring of arrival specs drawn
// from the fig6 (DefaultMix) workload: shapes and lifetime laws mirror the
// paper's mix without paying for full trace generation at 10k+ hosts.
type scaleFixture struct {
	hosts    int
	prefill  []benchVMSpec // placed round-robin to reach ~65% utilization
	arrivals []benchVMSpec // ring of steady-state arrival specs
}

type benchVMSpec struct {
	shape resources.Vector
	life  time.Duration
}

// sampleBenchVM draws one spec from the DefaultMix type catalog: the type
// by arrival weight, a shape from its core options, and a lifetime from its
// mixture-of-log-normals law (the same families workload.Generate samples).
func sampleBenchVM(rng *rand.Rand, mix []workload.TypeSpec, wsum float64) benchVMSpec {
	r := rng.Float64() * wsum
	ts := &mix[len(mix)-1]
	for i := range mix {
		if r -= mix[i].Weight; r <= 0 {
			ts = &mix[i]
			break
		}
	}
	cores := ts.Cores[rng.Intn(len(ts.Cores))]
	shape := resources.Vector{CPUMilli: cores * 1000, MemoryMB: cores * ts.MemPerCoreMB}
	if rng.Float64() < ts.SSDProb {
		shape.SSDGB = ts.SSDGB
	}
	m := ts.Modes[0]
	if len(ts.Modes) > 1 && rng.Float64() > m.Weight {
		m = ts.Modes[1]
	}
	life := time.Duration(m.MedianHours * math.Exp(rng.NormFloat64()*m.Sigma) * float64(time.Hour))
	if life < time.Minute {
		life = time.Minute
	}
	return benchVMSpec{shape: shape, life: life}
}

// newScaleFixture builds the fixture once per pool size (cached across
// sub-benchmarks).
func newScaleFixture(hosts int) *scaleFixture {
	rng := rand.New(rand.NewSource(int64(hosts)))
	mix := workload.DefaultMix()
	var wsum float64
	for i := range mix {
		wsum += mix[i].Weight
	}
	f := &scaleFixture{hosts: hosts}

	// Prefill to ~65% of pool CPU with mix-weighted VMs.
	capacity := workload.DefaultHostShape
	target := int64(float64(capacity.CPUMilli) * 0.65 * float64(hosts))
	var filled int64
	for filled < target {
		s := sampleBenchVM(rng, mix, wsum)
		f.prefill = append(f.prefill, s)
		filled += s.shape.CPUMilli
	}
	for i := 0; i < 8192; i++ {
		f.arrivals = append(f.arrivals, sampleBenchVM(rng, mix, wsum))
	}
	return f
}

var scaleFixtures = map[int]*scaleFixture{}

func scaleFixtureFor(b *testing.B, hosts int) *scaleFixture {
	b.Helper()
	f := scaleFixtures[hosts]
	if f == nil {
		f = newScaleFixture(hosts)
		scaleFixtures[hosts] = f
	}
	return f
}

// buildScalePool places the prefill population round-robin (no scheduling)
// and warms the policy with the per-placement hooks, producing the steady
// state both engines start from.
func buildScalePool(b *testing.B, f *scaleFixture, pol scheduler.Policy) *cluster.Pool {
	b.Helper()
	p := cluster.NewPool("scale", f.hosts, workload.DefaultHostShape)
	id := cluster.VMID(1)
	hi := 0
	for _, s := range f.prefill {
		placed := false
		for try := 0; try < f.hosts; try++ {
			h := p.Host(cluster.HostID(hi % f.hosts))
			hi++
			if h.Fits(s.shape) {
				vm := &cluster.VM{ID: id, Shape: s.shape, Created: 0, TrueLifetime: s.life}
				if err := p.Place(vm, h); err != nil {
					b.Fatal(err)
				}
				pol.OnPlaced(p, h, vm, 0)
				id++
				placed = true
				break
			}
		}
		if !placed {
			break // pool saturated for this shape; close enough to steady
		}
	}
	return p
}

// BenchmarkScalePlacement measures placement decisions at pool scale. The
// engine dimension is the benchstat comparison that backs the score cache's
// speedup claim.
//
//   - steady-state: one Schedule + Place + OnPlaced per op, with a paired
//     exit every op to hold occupancy constant, every context warm. The
//     cached engine's rows also report cache-B, the cache's live bytes.
//   - cold-context (cached engine only): one Schedule per op on a policy
//     whose cache was just dropped, so each op builds its context from
//     nothing. The exhaustive engine has no contexts to build.
func BenchmarkScalePlacement(b *testing.B) {
	pred := model.Oracle{}
	for _, hosts := range []int{1000, 10000} {
		f := scaleFixtureFor(b, hosts)
		for _, pc := range []struct {
			name string
			mk   func() scheduler.Policy
		}{
			{"wastemin", func() scheduler.Policy { return scheduler.NewWasteMin() }},
			{"nilas", func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) }},
			{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }},
			// Epoch-quantized variants, which the mega scale cells run: the
			// temporal level scores a host in O(1) without a model call,
			// cached as nilas-epoch's level 0 and scored on the winning
			// class bucket's hosts under lava-epoch, which removes exact
			// NILAS's O(feasible hosts) floor (see
			// internal/scheduler/epoch.go).
			{"nilas-epoch", func() scheduler.Policy {
				return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
			}},
			{"lava-epoch", func() scheduler.Policy {
				return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
			}},
		} {
			for _, eng := range []struct {
				name string
				e    scheduler.Engine
			}{{"cached", scheduler.EngineCached}, {"exhaustive", scheduler.EngineExhaustive}} {
				cell := fmt.Sprintf("hosts=%d/policy=%s/engine=%s", hosts, pc.name, eng.name)
				b.Run(cell+"/steady-state", func(b *testing.B) {
					benchSteadyState(b, f, scheduler.SetEngine(pc.mk(), eng.e))
				})
				if eng.e == scheduler.EngineCached {
					b.Run(cell+"/cold-context", func(b *testing.B) {
						benchColdContext(b, f, pc.mk())
					})
				}
			}
		}
	}
}

// benchStart is the virtual time every scale benchmark starts at.
const benchStart = time.Hour

// arrival builds the VM of the i-th op from the fixture's ring.
func (f *scaleFixture) arrival(i int, id cluster.VMID, now time.Duration) *cluster.VM {
	s := f.arrivals[i%len(f.arrivals)]
	return &cluster.VM{ID: id, Shape: s.shape, Created: now, TrueLifetime: s.life}
}

func benchSteadyState(b *testing.B, f *scaleFixture, pol scheduler.Policy) {
	p := buildScalePool(b, f, pol)
	now := benchStart
	nextID := cluster.VMID(1_000_000)
	if scheduler.EngineOf(pol) == scheduler.EngineCached {
		// One decision per ring entry, nothing placed: every (shape, class)
		// context the timed loop will ask for exists before the timer runs.
		for i := range f.arrivals {
			_, _ = pol.Schedule(p, f.arrival(i, nextID, now), now) // saturated shapes still build their context
			nextID++
		}
	}
	// Exit lag: each op exits the VM placed lagN ops ago, so the pool
	// neither drains nor fills during the run.
	const lagN = 64
	var ring [lagN]*cluster.VM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 50 * time.Millisecond
		if old := ring[i%lagN]; old != nil {
			if h, vm, err := p.Exit(old.ID); err == nil {
				pol.OnExited(p, h, vm, now)
			}
		}
		ring[i%lagN] = nil
		vm := f.arrival(i, nextID, now)
		nextID++
		h, err := pol.Schedule(p, vm, now)
		if err != nil {
			continue // momentarily saturated for this shape
		}
		if err := p.Place(vm, h); err != nil {
			b.Fatal(err)
		}
		pol.OnPlaced(p, h, vm, now)
		ring[i%lagN] = vm
	}
	b.ReportMetric(float64(p.NumHosts()), "hosts")
	if scheduler.EngineOf(pol) == scheduler.EngineCached {
		b.ReportMetric(float64(scheduler.CacheStatsOf(pol).Bytes), "cache-B")
	}
}

func benchColdContext(b *testing.B, f *scaleFixture, pol scheduler.Policy) {
	p := buildScalePool(b, f, pol)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Off and on again drops every context (see CachedChain.SetEngine);
		// the pool is never mutated, so every op sees the same hosts.
		scheduler.SetEngine(pol, scheduler.EngineExhaustive)
		scheduler.SetEngine(pol, scheduler.EngineCached)
		_, _ = pol.Schedule(p, f.arrival(i, cluster.VMID(1_000_000+i), benchStart), benchStart) // a saturated shape builds its context all the same
	}
	b.ReportMetric(float64(p.NumHosts()), "hosts")
}

// BenchmarkOpenHostPlacement isolates the placements that must open a host,
// the decisions the score cache's blank shortcut resolves (DESIGN.md §6).
// The dense fixture of BenchmarkScalePlacement holds no empty host and never
// takes that path. Here one host in 14 runs a VM that takes just over half
// its CPU, so about 93 % of the pool is blank. Every op places a VM that
// needs half a host, which only an empty host can take, and then exits it,
// so every op sees the same pool. The cached rows also report cache-B, the
// cache's live bytes, which on this sparse pool follow the occupied hosts
// rather than the pool. CI's bench-gate holds the cached 1k rows, cache-B
// included.
func BenchmarkOpenHostPlacement(b *testing.B) {
	pred := model.Oracle{}
	for _, hosts := range []int{1000, 10000} {
		for _, pc := range []struct {
			name string
			mk   func() scheduler.Policy
		}{
			{"wastemin", func() scheduler.Policy { return scheduler.NewWasteMin() }},
			{"nilas-epoch", func() scheduler.Policy {
				return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
			}},
			{"lava-epoch", func() scheduler.Policy {
				return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
			}},
		} {
			for _, eng := range []struct {
				name string
				e    scheduler.Engine
			}{{"cached", scheduler.EngineCached}, {"exhaustive", scheduler.EngineExhaustive}} {
				b.Run(fmt.Sprintf("hosts=%d/policy=%s/engine=%s", hosts, pc.name, eng.name), func(b *testing.B) {
					benchOpenHost(b, hosts, scheduler.SetEngine(pc.mk(), eng.e))
				})
			}
		}
	}
}

func benchOpenHost(b *testing.B, hosts int, pol scheduler.Policy) {
	capacity := workload.DefaultHostShape
	p := cluster.NewPool("open", hosts, capacity)
	resident := resources.Vector{CPUMilli: capacity.CPUMilli/2 + 1000, MemoryMB: capacity.MemoryMB / 2}
	for i := 0; i < hosts; i += 14 {
		vm := &cluster.VM{ID: cluster.VMID(i + 1), Shape: resident, TrueLifetime: 1000 * time.Hour}
		if err := p.Place(vm, p.Host(cluster.HostID(i))); err != nil {
			b.Fatal(err)
		}
		pol.OnPlaced(p, vm.Host, vm, 0)
	}
	half := resources.Vector{CPUMilli: capacity.CPUMilli / 2, MemoryMB: capacity.MemoryMB / 2}
	now := benchStart
	arrival := func(id cluster.VMID) *cluster.VM {
		return &cluster.VM{ID: id, Shape: half, Created: now, TrueLifetime: time.Hour}
	}
	_, _ = pol.Schedule(p, arrival(1_000_000), now) // build the one context before the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 50 * time.Millisecond
		vm := arrival(cluster.VMID(1_000_001 + i))
		h, err := pol.Schedule(p, vm, now)
		if err != nil || !h.Empty() {
			b.Fatalf("op %d: host %v, err %v; want an empty host", i, h, err)
		}
		if err := p.Place(vm, h); err != nil {
			b.Fatal(err)
		}
		pol.OnPlaced(p, h, vm, now)
		if _, _, err := p.Exit(vm.ID); err != nil {
			b.Fatal(err)
		}
		pol.OnExited(p, h, vm, now)
	}
	b.ReportMetric(p.EmptyHostFraction(), "empty-frac")
	if scheduler.EngineOf(pol) == scheduler.EngineCached {
		b.ReportMetric(float64(scheduler.CacheStatsOf(pol).Bytes), "cache-B")
	}
}

// BenchmarkStreamedReplay is the benchmark's replay-scale workload as a
// go-bench row anyone can regenerate and profile (-cpuprofile, -memprofile):
// one op is one sim.Run over a fresh workload.Stream of the replay-scale
// spec (65 % target utilisation, 12 h prefill and 3 h measured, seed 1),
// under wastemin or lava-epoch over the free oracle model, so the record
// generator, the event cursor, the score cache and the pool are all it
// times. The hosts=1000/policy=lava-gbdt row is the materialised path the
// replay-gbdt workload runs: the same spec at 1k hosts generated once, a
// 100-tree GBDT trained on its records once, both outside the timer, and
// one op a sim.Run of the trace's records under lava on that forest, which
// the lava policy binds per VM. events/op counts the creates and exits
// replayed up to the horizon; B/event and allocs/event divide the op's
// allocated bytes and objects by them. CI's bench-gate holds the 1k-host
// rows, -benchmem included, so benchstat gates allocs/event beside B/event.
func BenchmarkStreamedReplay(b *testing.B) {
	for _, hosts := range []int{1000, 10000} {
		spec := workload.PoolSpec{Name: "replay-scale", Zone: "zone-a", Hosts: hosts, TargetUtil: 0.65,
			Prefill: 12 * time.Hour, Duration: 3 * time.Hour, Diurnal: 0.3, Seed: 1}
		for _, pc := range []struct {
			name string
			mk   func() scheduler.Policy
		}{
			{"wastemin", func() scheduler.Policy { return scheduler.NewWasteMin() }},
			{"lava-epoch", func() scheduler.Policy {
				return scheduler.NewLAVAEpoch(model.Oracle{}, time.Minute, scheduler.DefaultEpoch)
			}},
		} {
			b.Run(fmt.Sprintf("hosts=%d/policy=%s", hosts, pc.name), func(b *testing.B) {
				g, err := workload.Stream(spec)
				if err != nil {
					b.Fatal(err)
				}
				benchReplay(b, countEvents(b, g, g.Meta().End()), func() sim.Config {
					g, err := workload.Stream(spec)
					if err != nil {
						b.Fatal(err)
					}
					return sim.Config{Trace: g.Meta(), Source: g, Policy: pc.mk()}
				})
			})
		}
		if hosts != 1000 {
			continue
		}
		// Built on the row's first call, not again for the timed one.
		var tr *trace.Trace
		var pred model.Predictor
		b.Run(fmt.Sprintf("hosts=%d/policy=lava-gbdt", hosts), func(b *testing.B) {
			if tr == nil {
				var err error
				if tr, err = workload.Generate(spec); err != nil {
					b.Fatal(err)
				}
				if pred, err = model.TrainGBDT(tr.Records, gbdt.Params{Trees: 100}); err != nil {
					b.Fatal(err)
				}
			}
			benchReplay(b, countEvents(b, tr.Stream(), tr.End()), func() sim.Config {
				return sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute)}
			})
		})
	}
}

// benchReplay times one sim.Run of cfg() per op and reports the events it
// replays and its allocation per event.
func benchReplay(b *testing.B, events int, cfg func() sim.Config) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, mallocs := ms.TotalAlloc, ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(events), "events/op")
	perEvent := float64(b.N) * float64(events)
	b.ReportMetric(float64(ms.TotalAlloc-before)/perEvent, "B/event")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/perEvent, "allocs/event")
}

// countEvents counts the creates and exits of src up to end, the events
// sim.Run replays.
func countEvents(b *testing.B, src trace.Stream, end time.Duration) int {
	b.Helper()
	n := 0
	c := trace.NewEventCursor(src)
	for ev, ok := c.Next(); ok && ev.Time <= end; ev, ok = c.Next() {
		n++
	}
	if err := c.Err(); err != nil {
		b.Fatal(err)
	}
	return n
}
