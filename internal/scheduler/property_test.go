package scheduler

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/simtime"
)

// policyUnderTest builds each policy fresh for property runs.
func policiesUnderTest() map[string]func() Policy {
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
	}
}

// TestPolicyInvariantsUnderRandomWorkload drives every policy with a random
// arrival/exit stream and checks the universal contracts:
//   - Schedule never returns an unavailable or overfull host,
//   - pool invariants hold after every operation,
//   - ErrNoCapacity is returned iff no feasible host exists.
func TestPolicyInvariantsUnderRandomWorkload(t *testing.T) {
	for name, mk := range policiesUnderTest() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				pol := mk()
				p := cluster.NewPool("prop", 6, resources.Cores(16, 16*4096, 0))
				// One random host drained for maintenance.
				drained := cluster.HostID(rng.Intn(p.NumHosts()))
				p.Host(drained).Unavailable = true

				var live []*cluster.VM
				now := time.Duration(0)
				for step := 0; step < 120; step++ {
					now += time.Duration(rng.Intn(30)) * time.Minute
					pol.OnTick(p, now)
					if rng.Float64() < 0.6 || len(live) == 0 {
						cores := int64(1 + rng.Intn(8))
						vm := &cluster.VM{
							ID:           cluster.VMID(1000*seed + int64(step)),
							Shape:        resources.Cores(cores, cores*4096, 0),
							Created:      now,
							TrueLifetime: time.Duration(1+rng.Intn(100)) * time.Hour,
						}
						h, err := pol.Schedule(p, vm, now)
						if err == ErrNoCapacity {
							// Verify: really nothing feasible.
							for _, hh := range p.Hosts() {
								if !hh.Unavailable && hh.Fits(vm.Shape) {
									t.Logf("ErrNoCapacity despite feasible host %d", hh.ID)
									return false
								}
							}
							continue
						}
						if err != nil {
							t.Logf("unexpected error: %v", err)
							return false
						}
						if h.Unavailable || !h.Fits(vm.Shape) {
							t.Logf("policy picked bad host %v", h)
							return false
						}
						if err := p.Place(vm, h); err != nil {
							t.Logf("place failed: %v", err)
							return false
						}
						pol.OnPlaced(p, h, vm, now)
						live = append(live, vm)
					} else {
						i := rng.Intn(len(live))
						vm := live[i]
						live = append(live[:i], live[i+1:]...)
						hh, _, err := p.Exit(vm.ID)
						if err != nil {
							t.Logf("exit failed: %v", err)
							return false
						}
						pol.OnExited(p, hh, vm, now)
					}
					if err := p.CheckInvariants(); err != nil {
						t.Logf("invariants: %v", err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLAVAClassInvariants checks LAVA-specific host-state invariants under
// random operation: class is always valid for non-empty managed hosts, and
// residual sets never reference departed VMs.
func TestLAVAClassInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLAVA(model.Oracle{}, 0)
		p := cluster.NewPool("lava-prop", 4, resources.Cores(16, 16*4096, 0))
		var live []*cluster.VM
		now := time.Duration(0)
		for step := 0; step < 100; step++ {
			now += time.Duration(rng.Intn(120)) * time.Minute
			l.OnTick(p, now)
			if rng.Float64() < 0.6 || len(live) == 0 {
				cores := int64(1 + rng.Intn(6))
				vm := &cluster.VM{
					ID:           cluster.VMID(1000*seed + int64(step)),
					Shape:        resources.Cores(cores, cores*4096, 0),
					Created:      now,
					TrueLifetime: time.Duration(1+rng.Intn(400)) * time.Hour,
				}
				h, err := l.Schedule(p, vm, now)
				if err != nil {
					continue
				}
				if err := p.Place(vm, h); err != nil {
					return false
				}
				l.OnPlaced(p, h, vm, now)
				live = append(live, vm)
			} else {
				i := rng.Intn(len(live))
				vm := live[i]
				live = append(live[:i], live[i+1:]...)
				hh, _, err := p.Exit(vm.ID)
				if err != nil {
					return false
				}
				l.OnExited(p, hh, vm, now)
			}
			for _, h := range p.Hosts() {
				if h.Empty() {
					if h.State != cluster.StateEmpty {
						t.Logf("empty host %d in state %v", h.ID, h.State)
						return false
					}
					continue
				}
				if !h.Class.Valid() {
					t.Logf("non-empty host %d has invalid class %v", h.ID, h.Class)
					return false
				}
				if h.State == cluster.StateRecycling && h.ResidualCount() > h.NumVMs() {
					t.Logf("host %d residuals %d > vms %d", h.ID, h.ResidualCount(), h.NumVMs())
					return false
				}
				if h.Deadline <= 0 {
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

// TestTemporalCostUsesPaperBuckets pins the NILAS quantization to the §4.2
// boundaries end to end through the policy scorer.
func TestTemporalCostUsesPaperBuckets(t *testing.T) {
	n := NewNILAS(model.Oracle{}, 0)
	p := cluster.NewPool("b", 1, resources.Cores(16, 65536, 0))
	h := p.Host(0)
	// Host exits in 1h (single 1h VM placed now).
	anchor := &cluster.VM{ID: 1, Shape: resources.Cores(1, 4096, 0), Created: 0, TrueLifetime: time.Hour}
	if err := p.Place(anchor, h); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		vmLife time.Duration
		want   float64
	}{
		{30 * time.Minute, 0},             // covered
		{90 * time.Minute, 1},             // ∆T = 30m
		{2*time.Hour + 10*time.Minute, 2}, // ∆T = 70m (§4.2 example)
		{25 * time.Hour, 9},               // ∆T = 24h
		{300 * time.Hour, 10},             // ∆T >= 168h
	}
	for i, c := range cases {
		// Unique IDs: the exit cache memoizes repredictions per (VM, time).
		vm := &cluster.VM{ID: cluster.VMID(100 + i), Shape: resources.Cores(1, 4096, 0), Created: 0, TrueLifetime: c.vmLife}
		got := n.temporalCost(h, vm, 0)
		if got != c.want {
			t.Errorf("temporalCost(life=%v) = %v, want %v", c.vmLife, got, c.want)
		}
	}
	_ = simtime.TemporalCostBuckets
}
