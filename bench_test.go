// Package-level benchmarks: one per paper table/figure (plus ablations), so
// `go test -bench=. -benchmem` regenerates the headline measurements. The
// heavyweight studies run one representative slice per iteration; the full
// sweeps live in cmd/experiments.
package lava

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/ptrace"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/stranding"
	"lava/internal/trace"
	"lava/internal/workload"
)

// benchTrace builds (once) the shared benchmark trace.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "bench", Zone: "bench-zone", Hosts: 48, TargetUtil: 0.65,
		Duration: 5 * simtime.Day, Prefill: 10 * simtime.Day, Seed: 1, Diurnal: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchModel trains (per call) the GBDT used by lifetime-aware benches.
func benchModel(b *testing.B, tr *trace.Trace) *model.GBDTPredictor {
	b.Helper()
	g, err := model.TrainGBDT(tr.Records, gbdt.Params{Trees: 150})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFig1WorkloadGeneration regenerates the Fig. 1 workload: the
// synthetic trace whose lifetime/resource split matches the paper.
func BenchmarkFig1WorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := workload.Generate(workload.PoolSpec{
			Name: "fig1", Zone: "z", Hosts: 48, TargetUtil: 0.65,
			Duration: 7 * simtime.Day, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 runs one pool of the headline empty-host study per policy.
func BenchmarkFig6(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	for _, pc := range []struct {
		name string
		mk   func() scheduler.Policy
	}{
		{"baseline", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"la-binary", func() scheduler.Policy { return scheduler.NewLABinary(pred) }},
		{"nilas", func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) }},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }},
	} {
		b.Run(pc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{Trace: tr, Policy: pc.mk()})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.AvgEmptyHostFrac
			}
		})
	}
}

// BenchmarkTable1ABPilot runs one A/B pilot arm (Table 1 methodology).
func BenchmarkTable1ABPilot(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	half := *tr
	half.Hosts = tr.Hosts / 2
	half.Records = nil
	for i, r := range tr.Records {
		if i%2 == 0 {
			half.Records = append(half.Records, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Trace: &half, Policy: scheduler.NewNILAS(pred, time.Minute)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2LARS replays a recorded defrag plan under both orderings.
func BenchmarkTable2LARS(b *testing.B) {
	tr := benchTrace(b)
	eng := defrag.New(defrag.Config{
		Pred: model.Oracle{}, Threshold: 0.95, HostsPerRound: 8, CheckEvery: 2 * time.Hour,
	})
	if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewWasteMin(), Injectors: []sim.Injector{eng}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := defrag.ReplayPlan(eng.Plan, defrag.OrderShuffled)
		lars := defrag.ReplayPlan(eng.Plan, defrag.OrderLARS)
		if lars.Performed > base.Performed {
			b.Fatalf("LARS regressed: %d > %d", lars.Performed, base.Performed)
		}
	}
}

// BenchmarkFig8ModelLatency measures single-prediction latency — the number
// the paper reports as 9 us median (Fig. 8), enabling in-scheduler
// repredictions.
func BenchmarkFig8ModelLatency(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	vm := vmFromRecord(tr.Records[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictRemaining(vm, time.Duration(i%8)*time.Hour)
	}
}

// BenchmarkFig9Reprediction measures a full reprediction sweep across
// uptime quantiles for one VM (the Fig. 9 evaluation kernel).
func BenchmarkFig9Reprediction(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	vm := vmFromRecord(tr.Records[len(tr.Records)/2])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 20; q++ {
			uptime := time.Duration(float64(q) / 20 * float64(vm.TrueLifetime))
			pred.PredictRemaining(vm, uptime)
		}
	}
}

// BenchmarkFig11Training measures GBDT training (the Fig. 11 importance
// source) on the uptime-augmented example set.
func BenchmarkFig11Training(b *testing.B) {
	tr := benchTrace(b)
	recs := tr.Records
	if len(recs) > 2000 {
		recs = recs[:2000]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.TrainGBDT(recs, gbdt.Params{Trees: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14SimulatorThroughput measures raw event-replay throughput
// (events/sec reported as events per op via b.ReportMetric).
func BenchmarkFig14SimulatorThroughput(b *testing.B) {
	tr := benchTrace(b)
	events := float64(2 * len(tr.Records))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewWasteMin()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(events, "events/op")
}

// BenchmarkTraceOverhead prices decision tracing on the Fig. 6 fixture
// under LAVA, the heaviest scheduling path: "off" is the untraced baseline
// (the hot path must be unaffected — it stays inside the gated
// BenchmarkFig6 budget), "k3" records every decision with the top-3 scored
// alternatives into an unbounded recorder. The k3 cell is tracked in
// BENCH_trace.json by the bench-smoke CI job but intentionally NOT
// benchstat-gated: recording cost is an opt-in observability price, not a
// hot-path regression.
func BenchmarkTraceOverhead(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("k3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := ptrace.New(ptrace.Options{K: 3, Policy: "lava"})
			if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute), Tracer: rec}); err != nil {
				b.Fatal(err)
			}
			if rec.Len() == 0 {
				b.Fatal("traced run recorded nothing")
			}
		}
	})
}

// BenchmarkFig15NoisyOracle runs one accuracy point of the Fig. 15 sweep.
func BenchmarkFig15NoisyOracle(b *testing.B) {
	tr := benchTrace(b)
	noisy := &model.NoisyOracle{Accuracy: 0.9, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewNILAS(noisy, time.Minute)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16NoReprediction runs the frozen-prediction ablation point.
func BenchmarkFig16NoReprediction(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	frozen := frozenBench{inner: pred}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewNILAS(frozen, time.Minute)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17CacheIntervals compares model-call volume across cache
// refresh intervals (the G.3 ablation).
func BenchmarkFig17CacheIntervals(b *testing.B) {
	tr := benchTrace(b)
	pred := benchModel(b, tr)
	for _, iv := range []time.Duration{0, time.Minute, 15 * time.Minute} {
		name := "none"
		if iv > 0 {
			name = iv.String()
		}
		b.Run(name, func(b *testing.B) {
			var calls int64
			for i := 0; i < b.N; i++ {
				pol := scheduler.NewNILAS(pred, iv)
				if _, err := sim.Run(sim.Config{Trace: tr, Policy: pol}); err != nil {
					b.Fatal(err)
				}
				calls = pol.ModelCalls()
			}
			b.ReportMetric(float64(calls), "modelcalls/op")
		})
	}
}

// BenchmarkTable4Inference compares per-model inference cost (the latency
// side of the Table 4 comparison). Stratified KM is the dist table under
// another name, so it has no arm of its own.
func BenchmarkTable4Inference(b *testing.B) {
	tr := benchTrace(b)
	recs := tr.Records
	if len(recs) > 1500 {
		recs = recs[:1500]
	}
	gb, err := model.TrainGBDT(recs, gbdt.Params{Trees: 100})
	if err != nil {
		b.Fatal(err)
	}
	dt, err := model.TrainDistTable(recs)
	if err != nil {
		b.Fatal(err)
	}
	vm := vmFromRecord(recs[0])
	for _, mp := range []struct {
		name string
		p    model.Predictor
	}{{"gbdt", gb}, {"dist-table", dt}} {
		b.Run(mp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mp.p.PredictRemaining(vm, time.Hour)
			}
		})
	}
}

// BenchmarkSimulateMany measures the experiment-sweep substrate: a batch of
// simulations executed through the runner at 1 worker (the old sequential
// replay) vs GOMAXPROCS workers. The ratio is the wall-clock speedup every
// multi-configuration study (Fig. 6, Table 1, cmd/experiments -exp all)
// inherits.
func BenchmarkSimulateMany(b *testing.B) {
	tr := benchTrace(b)
	specs := make([]SimSpec, 8)
	for i := range specs {
		kind := PolicyWasteMin
		if i%2 == 1 {
			kind = PolicyBestFit
		}
		specs[i] = SimSpec{Name: fmt.Sprintf("run-%d", i), Trace: tr, Policy: kind}
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateMany(context.Background(), bc.workers, specs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioFederation measures the offline run of a fleet: a 4-cell
// drain-wave federation under the baseline policy, compose + script replay +
// rollup per op.
func BenchmarkScenarioFederation(b *testing.B) {
	tr := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roll, err := SimulateScenario(tr, FleetConfig{
			ServeConfig: ServeConfig{Policy: PolicyWasteMin},
			Scenario:    "drain-wave", ScenarioSeed: 1, Cells: 4, Router: RouterFeatureHash,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = roll.AvgEmptyHostFrac
	}
}

// BenchmarkStranding measures one inflation-simulation probe (§2.3).
func BenchmarkStranding(b *testing.B) {
	tr := benchTrace(b)
	res, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewWasteMin()})
	if err != nil {
		b.Fatal(err)
	}
	mix := stranding.MixFromTrace(tr.Records, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stranding.Measure(res.FinalPool, mix, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// vmFromRecord builds a VM for prediction benches.
func vmFromRecord(r trace.Record) *clusterVM {
	return &clusterVM{ID: r.ID, Shape: r.Shape, Feat: r.Feat, TrueLifetime: r.Lifetime}
}

// frozenBench freezes initial predictions (the Fig. 16 no-reprediction arm).
type frozenBench struct{ inner model.Predictor }

func (f frozenBench) Name() string { return "frozen" }
func (f frozenBench) PredictRemaining(vm *clusterVM, uptime time.Duration) time.Duration {
	if vm.InitialPrediction == 0 {
		vm.InitialPrediction = f.inner.PredictRemaining(vm, 0)
	}
	return simtime.FloorRemaining(vm.InitialPrediction-uptime, uptime)
}

// clusterVM aliases the cluster VM type to keep bench signatures tidy.
type clusterVM = cluster.VM
