package experiments

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/dist"
	"lava/internal/model"
	"lava/internal/workload"
)

// TestEveryFloorIsMinRemaining: once a VM has outlived its estimate, every
// built-in predictor — the oracles, the Cox baseline, the distribution
// table unbound and bound, its conditional expectation and the
// no-reprediction ablation — answers max(u/10, 1 min), u/10 truncating,
// at every uptime from 0 to math.MaxInt64.
func TestEveryFloorIsMinRemaining(t *testing.T) {
	tr, err := workload.Generate(workload.PoolSpec{Name: "floor", Zone: "zone-a", Hosts: 8,
		TargetUtil: 0.6, Duration: 2 * 24 * time.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var lifetimes []time.Duration
	for _, r := range tr.Records {
		lifetimes = append(lifetimes, r.Lifetime)
	}
	longest := slices.Max(lifetimes)
	cox, err := model.TrainCox(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := dist.FromDurations(lifetimes)
	if err != nil {
		t.Fatal(err)
	}
	vm := &cluster.VM{ID: 1, Feat: tr.Records[0].Feat, TrueLifetime: time.Second}
	fn, ok := dt.Steps(vm)
	if !ok {
		t.Fatal("the distribution table declined the VM")
	}
	cur := &model.StepCursor{Fn: fn}
	noisy := &model.NoisyOracle{Accuracy: 1, Seed: 1}

	ups := []time.Duration{0, 1, 59 * time.Second, time.Minute, 10*time.Minute - 1, 10 * time.Minute,
		10*time.Minute + 9, time.Hour + 7, 15*24*time.Hour + 3, 1<<53 + 5, 1<<62 + 7, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		ups = append(ups, time.Duration(rng.Int63()), time.Duration(rng.Int63n(int64(30*24*time.Hour))))
	}
	slices.Sort(ups)

	cases := []struct {
		name string
		from time.Duration // the first uptime the VM has outlived its estimate at
		at   func(u time.Duration) time.Duration
	}{
		{"oracle", 0, func(u time.Duration) time.Duration {
			return model.Oracle{}.PredictRemaining(&cluster.VM{ID: 1}, u)
		}},
		{"noisy-oracle", noisy.PredictedLifetime(vm), func(u time.Duration) time.Duration {
			return noisy.PredictRemaining(vm, u)
		}},
		{"linear-cox", longest, func(u time.Duration) time.Duration { return cox.PredictRemaining(vm, u) }},
		{"dist-table", longest, func(u time.Duration) time.Duration { return dt.PredictRemaining(vm, u) }},
		{"dist-table bound", longest, cur.Remaining},
		{"dist-table steps", longest, fn.Remaining},
		{"cond-exp", longest, emp.CondExpRemaining},
		{"frozen", 1, func(u time.Duration) time.Duration {
			return frozenPredictor{inner: model.Oracle{}}.PredictRemaining(&cluster.VM{ID: 1, TrueLifetime: 1}, u)
		}},
	}
	for _, c := range cases {
		for _, u := range ups {
			if u < c.from {
				continue
			}
			if got, want := c.at(u), max(u/10, time.Minute); got != want {
				t.Errorf("%s at uptime %d ns: %d ns, want the floor %d ns", c.name, u, got, want)
			}
		}
	}
}
