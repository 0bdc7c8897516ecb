package lava

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"lava/internal/serve"
	"lava/internal/slo"
)

// TestScenarioOnlineOfflineParity is the elasticity harness's outermost
// contract: a scenario run ONLINE — a live fleet with the scenario's
// injectors firing inside each cell's event loop, driven over HTTP at
// concurrency 8 — produces a drain report byte-identical to the offline
// scripted equivalent (SimulateScenario). Trace-level events are replayed
// as the composed arrival stream, tick-level events fire live, model-level
// events wrap the live predictor; nothing about going online may change a
// single decision.
func TestScenarioOnlineOfflineParity(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	for _, name := range []string{"surge", "crunch", "drain-wave", "failures", "model-swap"} {
		name := name
		t.Run(name, func(t *testing.T) {
			roll, err := SimulateScenario(context.Background(), tr, PolicyLAVA, pred, ScenarioConfig{
				Scenario: name,
				Seed:     seed,
				Cells:    3,
				Router:   RouterFeatureHash,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(serve.FleetReportOf(tr.PoolName, roll.Cells[0].Policy, roll))
			if err != nil {
				t.Fatal(err)
			}

			fleet, err := NewFleet(tr, FleetConfig{
				ServeConfig:  ServeConfig{Policy: PolicyLAVA, Pred: pred},
				Cells:        3,
				Router:       RouterFeatureHash,
				Scenario:     name,
				ScenarioSeed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			hs := httptest.NewServer(fleet.Handler())
			defer hs.Close()

			// The client replays the composed arrival stream — the exact
			// trace the offline arm simulated — while the fleet's injectors
			// reproduce the tick-level events internally.
			composed, err := ComposeScenario(tr, name, seed)
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
			got, err := json.Marshal(*rep.Final)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("online scenario diverged from offline:\nonline:  %s\noffline: %s", got, want)
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
