package scheduler

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
)

// captureEq compares two captures field by field (exact float equality: the
// parity contract is bit-identity, not tolerance).
func captureEq(a, b *Capture) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Feasible != b.Feasible || a.Level != b.Level || len(a.Alts) != len(b.Alts) {
		return false
	}
	for i := range a.Alts {
		if a.Alts[i] != b.Alts[i] {
			return false
		}
	}
	return true
}

// TestTraceCaptureEngineParity is the capture-layer differential: with
// tracing armed, the incremental engine (reading its sorted score buckets)
// and the exhaustive engine (observing scores during its filter scan) must
// emit bit-identical captures — same feasible count, same deciding level,
// same top-K alternatives — at every decision of an identical random
// operation stream.
func TestTraceCaptureEngineParity(t *testing.T) {
	for name, mk := range cachedPolicies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				const hosts = 8
				const k = 4
				a := newTwin(hosts, mk, EngineCached)
				b := newTwin(hosts, mk, EngineExhaustive)
				if !EnableTrace(a.pol, k) || !EnableTrace(b.pol, k) {
					t.Fatalf("%s does not support tracing", name)
				}
				var live []cluster.VMID
				vms := map[cluster.VMID][2]*cluster.VM{}
				now := time.Duration(0)
				for step := 0; step < 160; step++ {
					now += time.Duration(rng.Intn(45)) * time.Minute
					a.pol.OnTick(a.p, now)
					b.pol.OnTick(b.p, now)
					switch r := rng.Float64(); {
					case r < 0.6 || len(live) == 0: // arrival
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
						ca, cb := CaptureOf(a.pol), CaptureOf(b.pol)
						if !captureEq(ca, cb) {
							t.Logf("step %d: capture divergence:\n cached:     %+v\n exhaustive: %+v", step, ca, cb)
							return false
						}
						if errA != nil {
							continue
						}
						if ha.ID != hb.ID {
							t.Logf("step %d: cached picked host %d, exhaustive host %d", step, ha.ID, hb.ID)
							return false
						}
						if len(ca.Alts) == 0 || len(ca.Alts) > k || ca.Feasible < len(ca.Alts) {
							t.Logf("step %d: malformed capture %+v", step, ca)
							return false
						}
						// The chosen host sits in the minimal level-0 score
						// group; it appears in Alts unless truncated at K.
						chosenIn := false
						for _, alt := range ca.Alts {
							if alt.Host == ha.ID {
								chosenIn = true
							}
						}
						if !chosenIn && len(ca.Alts) < k {
							t.Logf("step %d: chosen host %d missing from untruncated Alts %+v", step, ha.ID, ca.Alts)
							return false
						}
						for i := 1; i < len(ca.Alts); i++ {
							p, q := ca.Alts[i-1], ca.Alts[i]
							if p.Score > q.Score || (p.Score == q.Score && p.Host >= q.Host) {
								t.Logf("step %d: Alts not (score, id)-sorted: %+v", step, ca.Alts)
								return false
							}
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
					case r < 0.9: // exit
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
					default: // withdraw/restore a host out of band
						id := cluster.HostID(rng.Intn(hosts))
						toggleDrain(t, a.p, id)
						toggleDrain(t, b.p, id)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTraceCaptureShape pins the capture semantics on a hand-built pool:
// alternatives sorted by (score, host ID), truncated at K, feasible count
// independent of K, and no-capacity failures captured with Feasible 0.
func TestTraceCaptureShape(t *testing.T) {
	for _, engine := range []Engine{EngineCached, EngineExhaustive} {
		p := cluster.NewPool("t", 4, resources.Cores(16, 16*4096, 0))
		pol := NewWasteMin()
		SetEngine(pol, engine)
		EnableTrace(pol, 2)
		now := time.Hour

		// Hosts 2 and 3 carry load, 0 and 1 are empty: waste-min's level 0
		// (host emptiness class) scores the loaded pair lowest, so the
		// 2-truncated Alts are exactly hosts [2 3], score-tied at level 0.
		seedVM := func(id cluster.VMID, cores int64, host cluster.HostID) {
			vm := &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: 0, TrueLifetime: 100 * time.Hour}
			if err := p.Place(vm, p.Host(host)); err != nil {
				t.Fatal(err)
			}
			pol.OnPlaced(p, p.Host(host), vm, 0)
		}
		seedVM(1, 2, 2)
		seedVM(2, 6, 3)

		vm := &cluster.VM{ID: 10, Shape: resources.Cores(4, 4*4096, 0), Created: now, TrueLifetime: time.Hour}
		h, err := pol.Schedule(p, vm, now)
		if err != nil {
			t.Fatal(err)
		}
		c := CaptureOf(pol)
		if c == nil {
			t.Fatal("no capture")
		}
		if c.Feasible != 4 {
			t.Fatalf("Feasible = %d, want 4", c.Feasible)
		}
		if len(c.Alts) != 2 {
			t.Fatalf("len(Alts) = %d, want K=2", len(c.Alts))
		}
		if c.Alts[0].Host != 2 || c.Alts[1].Host != 3 {
			t.Fatalf("Alts %+v, want the loaded hosts [2 3]", c.Alts)
		}
		if c.Alts[0].Score != c.Alts[1].Score {
			t.Fatalf("hosts 2 and 3 should tie at level 0: %+v", c.Alts)
		}
		if h.ID != 2 && h.ID != 3 {
			t.Fatalf("waste-min placed on host %d, want a loaded host", h.ID)
		}

		// An infeasible request captures the failure context.
		huge := &cluster.VM{ID: 11, Shape: resources.Cores(64, 64*4096, 0), Created: now, TrueLifetime: time.Hour}
		if _, err := pol.Schedule(p, huge, now); err == nil {
			t.Fatal("expected ErrNoCapacity")
		}
		c = CaptureOf(pol)
		if c.Feasible != 0 || len(c.Alts) != 0 {
			t.Fatalf("failure capture = %+v, want empty", c)
		}
	}
}

// TestScheduleDisabledTraceAllocs proves the observe-only promise's cost
// half: with tracing disarmed (the default), the cached-engine scheduling
// hot path allocates nothing — the capture layer is nil checks only, and the
// filter's ID buffer is reused. Each measured decision re-syncs a dirtied
// host, fills lazy levels and filters a winning bucket of several hosts,
// through a static chain, a lazily cached epoch level and a dynamic level.
// (The exhaustive reference engine allocates candidate buffers regardless of
// tracing; it is not the hot path.)
func TestScheduleDisabledTraceAllocs(t *testing.T) {
	for name, pol := range map[string]Policy{
		"wastemin":   NewWasteMin(),
		"lava-epoch": NewLAVAEpoch(model.Oracle{}, time.Minute, DefaultEpoch),
		"lava":       NewLAVA(model.Oracle{}, time.Minute),
	} {
		p := cluster.NewPool("t", 64, resources.Cores(16, 16*4096, 0))
		now := time.Hour
		for i := 0; i < 24; i++ { // 24 occupied hosts: the non-empty bucket the filter walks
			res := &cluster.VM{ID: cluster.VMID(100 + i), Shape: resources.Cores(int64(1+i%4), 4096, 0), Created: now, TrueLifetime: 5 * time.Hour}
			if err := p.Place(res, p.Host(cluster.HostID(i))); err != nil {
				t.Fatal(err)
			}
			pol.OnPlaced(p, p.Host(cluster.HostID(i)), res, now)
		}
		vm := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: now, TrueLifetime: time.Hour}
		// Warm the engine (ID buffer, cache context, exit cache).
		for i := 0; i < 3; i++ {
			if _, err := pol.Schedule(p, vm, now); err != nil {
				t.Fatal(err)
			}
		}
		// The work counters ride the same path: plain increments, read by value.
		before := CacheStatsOf(pol)
		dirty := cluster.HostID(0)
		allocs := testing.AllocsPerRun(100, func() {
			p.InvalidateHost(dirty % 24)
			dirty++
			if _, err := pol.Schedule(p, vm, now); err != nil {
				t.Fatal(err)
			}
		})
		after := CacheStatsOf(pol)
		if after.Filtered < before.Filtered+2*100 || after.HostsResynced == before.HostsResynced || after.LazyEvals == before.LazyEvals {
			t.Fatalf("%s: the measured decisions skipped the filter: %+v -> %+v", name, before, after)
		}
		if allocs != 0 {
			t.Fatalf("%s: %v allocs per untraced Schedule, want 0", name, allocs)
		}
	}
}
