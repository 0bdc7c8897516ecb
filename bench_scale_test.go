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
// steady-state rows against regressions. The full 1k/10k/50k sweep with
// end-to-end replays lives in `cmd/experiments -exp scale`.
package lava

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/scheduler"
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
//     exit every op to hold occupancy constant, every context warm.
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
			// Epoch-quantized variants: the fully-static chains the mega
			// scale cells run. On the cached engine every level is served
			// from cache, which removes the dynamic temporal level's
			// O(feasible hosts) floor (see internal/scheduler/epoch.go).
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
