package scheduler

import (
	"math/rand"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/resources"
	"lava/internal/simtime"
	"lava/internal/workload"
)

// checkSlab fails the test when the cache binds more VMs than its bound
// allows or, just after a sweep, when one of its slots holds a VM without
// a host.
func checkSlab(t *testing.T, name string, c *ExitCache, live int, swept bool) {
	t.Helper()
	owned := 0
	for i, b := range c.slots {
		if b.vm == nil {
			continue
		}
		owned++
		if swept && b.vm.Host == nil {
			t.Fatalf("cache %s: slot %d holds vm %d, which has no host", name, i, b.vm.ID)
		}
	}
	if owned != c.bound {
		t.Fatalf("cache %s: %d owned slots, bound counts %d", name, owned, c.bound)
	}
	if limit := max(2*live, minSweep); c.bound > limit {
		t.Fatalf("cache %s: %d VMs bound, over max(2×%d live, %d)", name, c.bound, live, minSweep)
	}
}

// TestExitCacheSharedVMs has two exit caches over one GBDT predict the
// same VMs alternately, as the arms of a rollout can, while VMs leave the
// pool without either cache hearing of it and new ones arrive. Each cache
// rebinds a VM the other bound last. Every answer must equal
// PredictRemaining bit for bit, no sweep may leave a slot holding a VM
// without a host, and each cache must stay within its bound. Then one
// cache drops every VM and the other sweeps: both end empty.
func TestExitCacheSharedVMs(t *testing.T) {
	tr, err := workload.Generate(workload.PoolSpec{Name: "shared", Zone: "z1", Hosts: 16, TargetUtil: 0.6,
		Duration: 2 * simtime.Day, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.TrainGBDT(tr.Records, gbdt.Params{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	const live = 300
	p := cluster.NewPool("shared", 4, resources.Cores(1<<20, 1<<30, 1<<20))
	caches := [2]*ExitCache{NewExitCache(g, time.Minute), NewExitCache(g, time.Minute)}
	names := [2]string{"a", "b"}
	rng := rand.New(rand.NewSource(13))
	nextID := cluster.VMID(1)
	var vms []*cluster.VM
	arrive := func(now time.Duration) {
		r := tr.Records[rng.Intn(len(tr.Records))]
		vm := &cluster.VM{ID: nextID, Shape: r.Shape, Feat: r.Feat, Created: now}
		nextID++
		if err := p.Place(vm, p.Host(cluster.HostID(rng.Intn(p.NumHosts())))); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	for len(vms) < live {
		arrive(0)
	}
	var sweeps, rebinds [2]int
	now := time.Duration(0)
	for round := 0; round < 12; round++ {
		now += time.Duration(rng.Intn(7200)) * time.Second
		// A few VMs leave without a hook, and as many arrive.
		for k := 0; k < 40; k++ {
			i := rng.Intn(len(vms))
			if _, _, err := p.Exit(vms[i].ID); err != nil {
				t.Fatal(err)
			}
			vms[i] = vms[len(vms)-1]
			vms = vms[:len(vms)-1]
			arrive(now)
		}
		// The caches take turns, each walking the VMs in its own order, so
		// that their slots for one VM differ.
		order := rng.Perm(len(vms))
		for j := range order {
			for k, c := range caches {
				vm := vms[order[j]]
				if k == 1 {
					vm = vms[order[len(order)-1-j]]
				}
				want := g.PredictRemaining(vm, vm.Uptime(now))
				// The call binds vm unless the cache still holds it,
				// sweeping first when the bindings have doubled; vm itself
				// has a host.
				bind := c.slot(vm) == nil
				swept := bind && c.bound >= c.sweepAt
				if got := c.predict(vm, now); got != want {
					t.Fatalf("round %d vm %d: cache %s %v, PredictRemaining %v", round, vm.ID, names[k], got, want)
				}
				if bind && round > 0 {
					rebinds[k]++
				}
				if swept {
					sweeps[k]++
				}
				checkSlab(t, names[k], c, live, swept)
			}
		}
	}
	if min(sweeps[0], sweeps[1], rebinds[0], rebinds[1]) == 0 {
		t.Fatalf("sweeps %v, rebinds %v: each cache must rebind VMs and sweep", sweeps, rebinds)
	}
	for _, vm := range vms {
		if _, _, err := p.Exit(vm.ID); err != nil {
			t.Fatal(err)
		}
		caches[0].drop(vm)
	}
	for k, c := range caches {
		c.sweep()
		checkSlab(t, names[k], c, 0, true)
		if c.bound != 0 {
			t.Fatalf("cache %s: %d VMs bound after every VM left", names[k], c.bound)
		}
	}
}
