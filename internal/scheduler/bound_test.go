package scheduler_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// unbound hides its predictor's Steps: an exit cache over it predicts
// every VM through PredictRemaining.
type unbound struct{ model.Predictor }

// modelCalls sums the model calls of a policy and, for a rollout, its arms.
func modelCalls(p scheduler.Policy) int64 {
	if s, ok := p.(*scheduler.Switched); ok {
		return modelCalls(s.Pre) + modelCalls(s.Post)
	}
	return p.(interface{ ModelCalls() int64 }).ModelCalls()
}

// canonicalRun is the byte form of a run: its aggregates, its sample
// series and where every VM sat at the end.
func canonicalRun(t *testing.T, res *sim.Result, extra any) []byte {
	t.Helper()
	final := map[cluster.HostID][]cluster.VMID{}
	for _, h := range res.FinalPool.Hosts() {
		for _, vm := range h.VMs() {
			final[h.ID] = append(final[h.ID], vm.ID)
		}
	}
	b, err := json.Marshal([]any{res.Aggregates, res.Series, final, extra})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var boundPolicies = map[string]func(model.Predictor) scheduler.Policy{
	"lava":  func(p model.Predictor) scheduler.Policy { return scheduler.NewLAVA(p, time.Minute) },
	"nilas": func(p model.Predictor) scheduler.Policy { return scheduler.NewNILAS(p, time.Minute) },
	"lava-epoch": func(p model.Predictor) scheduler.Policy {
		return scheduler.NewLAVAEpoch(p, time.Minute, scheduler.DefaultEpoch)
	},
	"nilas-epoch": func(p model.Predictor) scheduler.Policy {
		return scheduler.NewNILASEpoch(p, time.Minute, scheduler.DefaultEpoch)
	},
}

// boundFixture is a generated trace and a GBDT trained on it.
func boundFixture(t *testing.T) (*trace.Trace, *model.GBDTPredictor) {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{Name: "bound", Zone: "z1", Hosts: 24, TargetUtil: 0.7,
		Prefill: 2 * simtime.Day, Duration: 3 * simtime.Day, Seed: 5, Diurnal: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.TrainGBDT(tr.Records, gbdt.Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	return tr, g
}

// TestBoundMatchesUnbound runs every lifetime policy over one GBDT, and
// LAVA and NILAS over the distribution table trained on the same trace
// (rows dist/…), twice — with the exit cache binding each VM's step
// function, and with Steps hidden — through a plain replay, a LARS
// defragmentation run (whose copy-window reservations leave their hosts
// without an exit hook) and a rollout from NILAS (whose VMs exit past the switch
// unseen by the old arm). The runs must be the same bytes and make the
// same model calls.
func TestBoundMatchesUnbound(t *testing.T) {
	tr, g := boundFixture(t)
	dt, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	type arm struct {
		name string
		run  func(t *testing.T, pred model.Predictor, mk func(model.Predictor) scheduler.Policy) ([]byte, int64)
	}
	arms := []arm{
		{"plain", func(t *testing.T, pred model.Predictor, mk func(model.Predictor) scheduler.Policy) ([]byte, int64) {
			pol := mk(pred)
			res, err := sim.Run(sim.Config{Trace: tr, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			return canonicalRun(t, res, nil), modelCalls(pol)
		}},
		{"defrag", func(t *testing.T, pred model.Predictor, mk func(model.Predictor) scheduler.Policy) ([]byte, int64) {
			pol := mk(pred)
			eng := defrag.New(defrag.Config{Strategy: defrag.OrderLARS, Pred: pred,
				Threshold: 0.9, HostsPerRound: 3, CheckEvery: 2 * time.Hour})
			res, err := sim.Run(sim.Config{Trace: tr, Policy: pol, Injectors: []sim.Injector{eng}})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Stats.Performed == 0 {
				t.Fatal("defrag migrated nothing")
			}
			return canonicalRun(t, res, []any{eng.Stats, eng.Plan}), modelCalls(pol)
		}},
		{"rollout", func(t *testing.T, pred model.Predictor, mk func(model.Predictor) scheduler.Policy) ([]byte, int64) {
			pol := scheduler.NewSwitched(scheduler.NewNILAS(pred, time.Minute), mk(pred), tr.WarmUp+simtime.Day)
			res, err := sim.Run(sim.Config{Trace: tr, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			return canonicalRun(t, res, nil), modelCalls(pol)
		}},
	}
	type row struct {
		name string
		pred model.Predictor
		mk   func(model.Predictor) scheduler.Policy
	}
	var rows []row
	for name, mk := range boundPolicies {
		rows = append(rows, row{name, g, mk})
	}
	for _, name := range []string{"lava", "nilas"} {
		rows = append(rows, row{"dist/" + name, dt, boundPolicies[name]})
	}
	for _, r := range rows {
		if _, ok := r.pred.(interface {
			Steps(*cluster.VM) (model.StepFn, bool)
		}); !ok {
			t.Fatalf("%s: %T has no Steps, so nothing binds", r.name, r.pred)
		}
		for _, a := range arms {
			t.Run(r.name+"/"+a.name, func(t *testing.T) {
				want, wantCalls := a.run(t, unbound{r.pred}, r.mk)
				got, gotCalls := a.run(t, r.pred, r.mk)
				if gotCalls != wantCalls || wantCalls == 0 {
					t.Fatalf("model calls: bound %d, unbound %d", gotCalls, wantCalls)
				}
				if string(got) != string(want) {
					t.Fatalf("bound run differs from unbound:\n%s\n%s", got, want)
				}
			})
		}
	}
}

// TestExitCacheSweepsHooklessExits drives a bound and an unbound twin of
// every lifetime policy through the same script, in which half the exits
// bypass the policy (a bare pool.Exit): every decision and the model calls
// must agree, and the bound exit cache must keep its bindings within
// twice the live VMs plus a constant.
func TestExitCacheSweepsHooklessExits(t *testing.T) {
	tr, g := boundFixture(t)
	recs := tr.Records
	for name, mk := range boundPolicies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var ms [2]*sim.Machine
			var pols [2]scheduler.Policy
			for i, pred := range []model.Predictor{g, unbound{g}} {
				pols[i] = mk(pred)
				m, err := sim.NewMachine(sim.Config{Policy: pols[i], Trace: &trace.Trace{
					PoolName: "hookless", Hosts: tr.Hosts, HostCPU: tr.HostCPU, HostMem: tr.HostMem, Horizon: 1000 * simtime.Day}})
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = m
			}
			var live []cluster.VMID
			now, peak := time.Duration(0), 0
			for step := 0; step < 12000; step++ {
				now += time.Duration(rng.Intn(120)) * time.Second
				if len(live) < 150 || rng.Intn(2) == 0 {
					rec := recs[rng.Intn(len(recs))]
					rec.ID, rec.Arrival = cluster.VMID(step+1), now
					var hosts [2]cluster.HostID
					for i, m := range ms {
						h, err := m.Create(rec, now)
						if err != nil {
							t.Fatal(err)
						}
						hosts[i] = -1
						if h != nil {
							hosts[i] = h.ID
						}
					}
					if hosts[0] != hosts[1] {
						t.Fatalf("step %d: bound placed on %d, unbound on %d", step, hosts[0], hosts[1])
					}
					if hosts[0] >= 0 {
						live = append(live, rec.ID)
					}
					continue
				}
				k := rng.Intn(len(live))
				id := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				hooked := rng.Intn(2) == 0
				for _, m := range ms {
					if hooked {
						if _, err := m.Exit(id, now); err != nil {
							t.Fatal(err)
						}
					} else if _, _, err := m.Pool().Exit(id); err != nil {
						t.Fatal(err)
					}
				}
				n := scheduler.BoundVMs(pols[0])
				peak = max(peak, n)
				if n > 2*len(live)+256 {
					t.Fatalf("step %d: %d VMs bound, %d live", step, n, len(live))
				}
			}
			if a, b := modelCalls(pols[0]), modelCalls(pols[1]); a != b {
				t.Fatalf("model calls: bound %d, unbound %d", a, b)
			}
			if scheduler.BoundVMs(pols[1]) != 0 {
				t.Fatal("the unbound twin bound VMs")
			}
			t.Logf("peak %d bound, %d live at the end", peak, len(live))
		})
	}
}

// TestExitCacheRebindsReusedVM: the pre arm of a rollout binds a VM as the
// first VM it binds (slot 0), and the VM exits past the switch, which only
// the post arm hears. The machine reuses the object for a later VM of
// another type, whose handle reads 0 again. The idle arm's cache must
// answer that VM with the predictor's answer for it, not the step function
// of the VM that left.
func TestExitCacheRebindsReusedVM(t *testing.T) {
	tr, g := boundFixture(t)
	const up = time.Hour
	predict := func(rec trace.Record) time.Duration {
		return g.PredictRemaining(&cluster.VM{ID: rec.ID, Shape: rec.Shape, Feat: rec.Feat}, up)
	}
	first, other, found := tr.Records[0], trace.Record{}, false
	for _, rec := range tr.Records[1:] {
		if found = rec.Feat != first.Feat && predict(rec) != predict(first); found {
			other = rec
			break
		}
	}
	if !found {
		t.Fatal("every VM type has the first one's prediction")
	}
	switchAt := 2 * time.Hour
	pre := scheduler.NewNILAS(g, time.Minute)
	m, err := sim.NewMachine(sim.Config{
		Policy: scheduler.NewSwitched(pre, scheduler.NewBestFit(), switchAt),
		Trace:  &trace.Trace{PoolName: "rebind", Hosts: tr.Hosts, HostCPU: tr.HostCPU, HostMem: tr.HostMem, Horizon: simtime.Day},
	})
	if err != nil {
		t.Fatal(err)
	}
	first.ID, other.ID = 1, 2
	h, err := m.Create(first, time.Hour)
	if err != nil || h == nil {
		t.Fatalf("Create(first) = (%v, %v)", h, err)
	}
	vm := h.VM(1)
	if vm.BindSlot != 0 || scheduler.BoundVMs(pre) != 1 {
		t.Fatalf("first VM holds slot %d of %d bound, want slot 0 of 1", vm.BindSlot, scheduler.BoundVMs(pre))
	}
	if ok, err := m.Exit(1, 2*switchAt); !ok || err != nil {
		t.Fatalf("Exit(1) = (%v, %v)", ok, err)
	}
	at := 3 * switchAt
	if h, err = m.Create(other, at); err != nil || h == nil {
		t.Fatalf("Create(other) = (%v, %v)", h, err)
	}
	if h.VM(2) != vm || vm.BindSlot != 0 {
		t.Fatalf("the machine did not reuse the exited object with a zero handle (slot %d)", vm.BindSlot)
	}
	if got, want := scheduler.ExitCacheOf(pre).Remaining(vm, at+up), predict(other); got != want {
		t.Fatalf("idle arm answers the reused VM %v, the predictor %v (the exited VM's answer is %v)", got, want, predict(first))
	}
}
