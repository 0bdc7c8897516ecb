package scheduler_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/trace"
)

// TestBlankHostsScoreAlike checks the contract the blank shortcut rests on:
// every scorer that carries the marker gives all blank hosts bit-identical
// scores. Random pools are driven through sim.Machine — placements, exits,
// cross-cell migrations, kills and ticks, with bare pool.Exit and
// pool.Migrate calls that skip the policy hooks — and after every step each
// marked scorer is probed on every blank host with VMs of several shapes and
// LAVA lifetime classes, at times on both sides of the next epoch boundary.
func TestBlankHostsScoreAlike(t *testing.T) {
	pred := model.Oracle{}
	pols := map[string]func() scheduler.Policy{
		"wastemin": scheduler.NewWasteMin,
		"bestfit":  scheduler.NewBestFit,
		"nilas":    func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) },
		"lava":     func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) },
		"nilas-epoch": func() scheduler.Policy {
			return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		},
		"lava-epoch": func() scheduler.Policy {
			return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		},
	}
	lifetimes := []time.Duration{5 * time.Minute, 3 * time.Hour, 30 * time.Hour, 300 * time.Hour}
	for name, mk := range pols {
		t.Run(name, func(t *testing.T) {
			checked := 0
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				pol := mk()
				scorers := scheduler.MarkedScorers(pol)
				if len(scorers) == 0 {
					t.Fatal("no marked scorer")
				}
				m, err := sim.NewMachine(sim.Config{Policy: pol, Trace: &trace.Trace{
					PoolName: "blank", Hosts: 16, HostCPU: 16000, HostMem: 16 * 4096, Horizon: 1000 * time.Hour}})
				if err != nil {
					t.Fatal(err)
				}
				p := m.Pool()
				ctl := sim.NewControl(p, pol, &sim.Result{})
				var live []cluster.VMID
				now := time.Duration(0)
				for step := 0; step < 200; step++ {
					now += time.Duration(rng.Intn(50)) * time.Minute
					live = slices.DeleteFunc(live, func(id cluster.VMID) bool { return p.HostOf(id) == nil })
					var id cluster.VMID
					if len(live) > 0 {
						id = live[rng.Intn(len(live))]
					}
					switch r := rng.Float64(); {
					case r < 0.45 || len(live) == 0:
						vid := cluster.VMID(step + 1)
						cores := int64(1 + rng.Intn(12))
						rec := trace.Record{ID: vid, Arrival: now, Lifetime: lifetimes[rng.Intn(len(lifetimes))] + time.Duration(rng.Intn(90))*time.Minute,
							Shape: resources.Cores(cores, cores*4096, 0)}
						if h, err := m.Create(rec, now); err != nil {
							t.Fatal(err)
						} else if h != nil {
							live = append(live, vid)
						}
					case r < 0.6:
						if _, err := m.Exit(id, now); err != nil {
							t.Fatal(err)
						}
					case r < 0.68:
						vm, _, err := m.MigrateOut(id, now)
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := m.MigrateIn(vm, now); err != nil {
							t.Fatal(err)
						}
					case r < 0.76:
						if err := m.Advance(now); err != nil {
							t.Fatal(err)
						}
						if err := ctl.Kill(id, now); err != nil {
							t.Fatal(err)
						}
					case r < 0.84:
						if err := m.Advance(now); err != nil {
							t.Fatal(err)
						}
					case r < 0.93: // bare exit: the policy never hears of it
						if _, _, err := p.Exit(id); err != nil {
							t.Fatal(err)
						}
					default: // bare migration
						dst := p.Host(cluster.HostID(rng.Intn(p.NumHosts())))
						if src := p.HostOf(id); src != dst && dst.Fits(src.VM(id).Shape) {
							if _, err := p.Migrate(id, dst); err != nil {
								t.Fatal(err)
							}
						}
					}
					now = max(now, m.Now())
					var blanks []*cluster.Host
					for _, h := range p.Hosts() {
						if scheduler.IsBlank(h) {
							blanks = append(blanks, h)
						}
					}
					if len(blanks) < 2 {
						continue
					}
					checked++
					next := now - now%scheduler.DefaultEpoch + scheduler.DefaultEpoch
					for _, at := range []time.Duration{now, next - 1, next, next + time.Minute} {
						for _, cores := range []int64{1, 4, 9, 16} {
							for _, life := range lifetimes {
								vm := &cluster.VM{ID: 1 << 30, Shape: resources.Cores(cores, cores*4096, 0), Created: at, TrueLifetime: life}
								for _, s := range scorers {
									want := s.Score(blanks[0], vm, at)
									for _, h := range blanks[1:] {
										if got := s.Score(h, vm, at); math.Float64bits(got) != math.Float64bits(want) {
											t.Fatalf("seed %d step %d: %s scores blank host %d %v, blank host %d %v (%d cores, life %v, at %v)",
												seed, step, s.Name(), h.ID, got, blanks[0].ID, want, cores, life, at)
										}
									}
								}
							}
						}
					}
				}
			}
			if checked < 100 {
				t.Errorf("only %d steps had two blank hosts to compare", checked)
			}
		})
	}
}
