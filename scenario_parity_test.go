package lava

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"lava/internal/cell"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/sim"
	"lava/internal/slo"
)

// shardedOracle is the independent reference for the offline run of a fleet —
// what the exhaustive engine is to the score cache. It composes the scenario,
// shards the composed trace with cell.PlanCells, runs one plain sim.Run per
// shard under that cell's own policy and scenario injectors, and rolls the
// results up. With the fleet's driver (serve.RunScriptOffline) it shares the
// routing ledger and the simulator, and none of the op expansion, step
// dispatch or config chain, so byte-equality with SimulateScenario is
// evidence rather than tautology. cfg.Policy must be set; serving-only
// fields (admission, tracing, memo) are not modelled. It returns the
// canonical fleet report.
func shardedOracle(t *testing.T, tr *Trace, cfg FleetConfig) []byte {
	t.Helper()
	name := cfg.Scenario
	if name == "" {
		name = "steady"
	}
	spec, err := scenario.ByName(name, tr, cfg.ScenarioSeed)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := spec.ComposeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	router := cfg.Router
	if router == "" {
		router = RouterFeatureHash
	}
	plan, err := cell.PlanCells(composed, string(router), max(cfg.Cells, 1))
	if err != nil {
		t.Fatal(err)
	}
	pred := cfg.Pred
	if pred != nil {
		pred = spec.WrapModel(pred)
	}
	sims := make([]*sim.Result, len(plan.Cells))
	for i, ct := range plan.Cells {
		pol, err := scheduler.New(string(cfg.Policy), pred, cacheRefresh(cfg.CacheRefresh))
		if err != nil {
			t.Fatal(err)
		}
		if sims[i], err = sim.Run(sim.Config{Trace: ct, Policy: pol, Injectors: spec.Injectors(i)}); err != nil {
			t.Fatal(err)
		}
	}
	roll, err := cell.RollUp(plan.Router, plan.Hosts, sims)
	if err != nil {
		t.Fatal(err)
	}
	return rollupJSON(t, tr, roll)
}

// rollupJSON projects a rollup of tr's fleet into the canonical report.
func rollupJSON(t *testing.T, tr *Trace, roll *cell.Rollup) []byte {
	t.Helper()
	return reportJSON(t, serve.FleetReportOf(tr.PoolName, roll.Cells[0].Policy, roll))
}

// reportJSON marshals a fleet report the way /drain does.
func reportJSON(t *testing.T, rep serve.DrainResponse) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replayOnline serves the fleet cfg describes over HTTP, replays the
// scenario-composed arrival stream against it at concurrency 8 — the fleet's
// injectors reproduce the tick-level events internally — and returns its
// drain report.
func replayOnline(t *testing.T, tr *Trace, cfg FleetConfig) []byte {
	t.Helper()
	fleet, err := NewFleet(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	hs := httptest.NewServer(fleet.Handler())
	defer hs.Close()
	composed, err := ComposeScenario(tr, cfg.Scenario, cfg.ScenarioSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&serve.Client{Base: hs.URL}).Replay(context.Background(), composed, serve.ReplayOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Final == nil || len(rep.Final.Cells) == 0 {
		t.Fatal("fleet replay returned no fleet drain report")
	}
	return reportJSON(t, *rep.Final)
}

// TestScenarioOnlineOfflineParity is the elasticity harness's outermost
// contract: a scenario run ONLINE — a live fleet with the scenario's
// injectors firing inside each cell's event loop, driven over HTTP at
// concurrency 8 — produces a drain report byte-identical to the offline
// sharded run of the same scenario. The offline arm is the sharded oracle,
// not SimulateScenario: that one runs the fleet's own plan/applyTo, and a
// parity whose two arms share the expansion would prove less. Trace-level
// events are replayed as the composed arrival stream, tick-level events fire
// live, model-level events wrap the live predictor; nothing about going
// online may change a single decision.
func TestScenarioOnlineOfflineParity(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"surge", "crunch", "drain-wave", "failures", "model-swap"} {
		t.Run(name, func(t *testing.T) {
			cfg := FleetConfig{
				ServeConfig:  ServeConfig{Policy: PolicyLAVA, Pred: pred},
				Cells:        3,
				Router:       RouterFeatureHash,
				Scenario:     name,
				ScenarioSeed: 7,
			}
			want := shardedOracle(t, tr, cfg)
			if got := replayOnline(t, tr, cfg); !bytes.Equal(got, want) {
				t.Fatalf("online scenario diverged from offline:\nonline:  %s\noffline: %s", got, want)
			}
		})
	}
}

// TestSimulateScenarioMatchesOracle pins the one offline fleet driver to the
// independent sharded reference: every catalog scenario under every router,
// 3 cells, byte-equal canonical reports.
func TestSimulateScenarioMatchesOracle(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ScenarioNames() {
		for _, router := range cell.RouterKinds() {
			t.Run(name+"/"+router, func(t *testing.T) {
				cfg := FleetConfig{
					ServeConfig:  ServeConfig{Policy: PolicyLAVA, Pred: pred},
					Cells:        3,
					Router:       RouterKind(router),
					Scenario:     name,
					ScenarioSeed: 7,
				}
				roll, err := SimulateScenario(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := rollupJSON(t, tr, roll)
				if want := shardedOracle(t, tr, cfg); !bytes.Equal(got, want) {
					t.Fatalf("SimulateScenario diverged from the sharded oracle:\ndriver: %s\noracle: %s", got, want)
				}
			})
		}
	}
}

// TestHorizonlessFleetParity is the regression test for the horizon-less
// trace: with no horizon in the header a fleet still measures every cell to
// the trace's common End() (see FleetConfig), so SimulateScenario,
// ReplayFleetOffline, a live fleet replayed at concurrency 8 and the sharded
// oracle all report the same bytes. Before there was one offline driver,
// SimulateScenario measured each shard to its own last exit and disagreed
// with the other two.
func TestHorizonlessFleetParity(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{Hosts: 48, Days: 3, PrefillDays: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.Horizon = 0
	dist, err := TrainModel(tr, ModelDist)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []ServeConfig{{Policy: PolicyWasteMin}, {Policy: PolicyLAVA, Pred: dist}} {
		t.Run(string(arm.Policy), func(t *testing.T) {
			cfg := FleetConfig{ServeConfig: arm, Cells: 3}
			roll, err := SimulateScenario(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := rollupJSON(t, tr, roll)
			offline, err := ReplayFleetOffline(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]byte{
				"ReplayFleetOffline": reportJSON(t, *offline),
				"live fleet":         replayOnline(t, tr, cfg),
				"sharded oracle":     shardedOracle(t, tr, cfg),
			} {
				if !bytes.Equal(got, want) {
					t.Errorf("%s diverged from SimulateScenario on a horizon-less trace:\ngot:  %s\nwant: %s", name, got, want)
				}
			}
		})
	}
}

// TestClassedAdmissionOnlineOfflineParity is the SLO layer's outermost
// property test: a scenario-composed trace labeled with SLO classes, replayed
// against a live fleet whose front door runs per-class token buckets, drains
// byte-identically to ReplayFleetOffline — at 1 worker and at 8. The surge
// scenario adds arrivals of its own, so the test also proves the
// compose-then-label order: scenario-injected VMs are classed exactly as the
// offline arm classes them.
func TestClassedAdmissionOnlineOfflineParity(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed  = 7
		mix   = "latency=2,standard=6,besteffort=2"
		admit = "besteffort=1/6h:2"
	)
	cfg := FleetConfig{
		ServeConfig:  ServeConfig{Policy: PolicyLAVA, Pred: pred, Admission: admit},
		Cells:        3,
		Router:       RouterFeatureHash,
		Scenario:     "surge",
		ScenarioSeed: seed,
		ClassMix:     mix,
	}

	offline, err := ReplayFleetOffline(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := offline.Metrics.SLO
	if sum == nil {
		t.Fatal("offline classed replay carries no SLO summary")
	}
	if be := sum.Classes[slo.ClassBestEffort]; be == nil || be.Rejected == 0 {
		t.Fatalf("admission config rejected nothing — the parity claim would be vacuous: %+v", sum.Classes)
	}
	if sum.Fairness >= 1 || sum.Fitness <= 0 {
		t.Fatalf("fairness %v / fitness %v out of range for a shaped replay", sum.Fairness, sum.Fitness)
	}
	want, err := json.Marshal(*offline)
	if err != nil {
		t.Fatal(err)
	}

	// The online client sends the exact stream the offline arm simulated:
	// compose the scenario, then label — the same order buildFleetConfig uses.
	composed, err := ComposeScenario(tr, "surge", seed)
	if err != nil {
		t.Fatal(err)
	}
	classed, err := AssignClasses(composed, mix, seed)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		fleet, err := NewFleet(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(fleet.Handler())
		rep, err := (&serve.Client{Base: hs.URL}).Replay(context.Background(), classed, serve.ReplayOptions{Concurrency: workers})
		hs.Close()
		fleet.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Final == nil || len(rep.Final.Cells) == 0 {
			t.Fatalf("workers=%d: no fleet drain report", workers)
		}
		got, err := json.Marshal(*rep.Final)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("classed online replay (workers=%d) diverged from offline:\nonline:  %s\noffline: %s", workers, got, want)
		}
		if rep.Rejected == 0 {
			t.Fatalf("workers=%d: client saw no 429s despite gate rejections", workers)
		}
	}
}

// TestClassMixAloneChangesNothing is the back-compat half of the contract:
// labeling a trace with SLO classes while leaving every bucket unlimited (no
// Admission spec) must not move a single byte of the drain report relative to
// the unclassed fleet — classes without admission are pure metadata.
func TestClassMixAloneChangesNothing(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	base := FleetConfig{
		ServeConfig: ServeConfig{Policy: PolicyLAVA, Pred: pred},
		Cells:       3,
		Router:      RouterFeatureHash,
	}
	plain, err := ReplayFleetOffline(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	classedCfg := base
	classedCfg.ClassMix = "latency=1,standard=1,besteffort=1"
	classed, err := ReplayFleetOffline(tr, classedCfg)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(*plain)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(*classed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, cb) {
		t.Fatalf("class labels with unlimited buckets changed the drain report:\nclassed:   %s\nunclassed: %s", cb, pb)
	}
	if bytes.Contains(pb, []byte(`"slo"`)) {
		t.Fatalf("unadmitted drain report carries an slo block: %s", pb)
	}
}
