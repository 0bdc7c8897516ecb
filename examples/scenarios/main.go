// Scenario cookbook: recipes for the multi-cell scenario engine
// (internal/scenario + internal/cell, driven through the lava facade).
//
// The headline recipe below is a 4-cell maintenance-wave A/B run: the same
// federated workload replayed under the lifetime-unaware baseline and under
// LAVA while a rolling drain campaign takes a tenth of every cell out of
// service, wave after wave. More empty hosts means faster, less disruptive
// maintenance (§2.3), so the A/B delta under "drain-wave" is the paper's
// maintenance story made measurable.
//
// Other recipes to try by editing cfg.Scenario / cfg.Router below:
//
//	surge        sustained +150% arrivals      — does packing headroom survive?
//	flash-crowd  short front-loaded 4x burst   — burst absorption
//	failures     a host block dies at once     — rebuild after correlated loss
//	crunch       a quarter of capacity leaves  — scheduling under scarcity
//	model-swap   predictions degrade mid-run   — is adaptation (§4.3) enough?
//	steady       no events                     — the control arm
//
// and routers: feature-hash (affinity), round-robin (spread),
// least-utilized (load-aware). Custom scenarios are scenario.Spec values;
// see internal/scenario for the event types.
//
// Run with: go run ./examples/scenarios
package main

import (
	"fmt"
	"log"

	"lava"
)

func main() {
	// One federation-sized workload: four cells of 16 hosts each.
	tr, err := lava.GenerateTrace(lava.TraceConfig{
		Name: "fleet", Hosts: 64, Days: 6, PrefillDays: 8, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	pred, err := lava.TrainModel(tr, lava.ModelGBDT)
	if err != nil {
		log.Fatal(err)
	}

	cfg := lava.FleetConfig{
		Scenario:     "drain-wave",
		ScenarioSeed: 11,
		Cells:        4,
		Router:       lava.RouterFeatureHash,
	}

	// A/B: same scenario, same cells, same seed — only the policy differs.
	arms := []struct {
		name   string
		policy lava.PolicyKind
		pred   lava.Predictor
	}{
		{"baseline (waste-min)", lava.PolicyWasteMin, nil},
		{"LAVA", lava.PolicyLAVA, pred},
	}
	empty := make([]float64, len(arms))
	for i, arm := range arms {
		cfg.Policy, cfg.Pred = arm.policy, arm.pred
		roll, err := lava.SimulateScenario(tr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		empty[i] = roll.AvgEmptyHostFrac
		fmt.Printf("%-21s  empty hosts %6.2f%%  cpu util %6.2f%%  util spread %5.2f pp  failed %d\n",
			arm.name, 100*roll.AvgEmptyHostFrac, 100*roll.AvgCPUUtil, 100*roll.UtilSpread, roll.Failed)
		for j, cellRes := range roll.Cells {
			fmt.Printf("    %-17s  hosts %2d  empty %6.2f%%  placed %d\n",
				cellRes.PoolName, roll.Hosts[j], 100*cellRes.AvgEmptyHostFrac, cellRes.Placements)
		}
	}
	fmt.Printf("\nA/B under %s: LAVA %+.2f pp empty hosts vs baseline\n",
		cfg.Scenario, 100*(empty[1]-empty[0]))
	fmt.Println("(more empty hosts = faster maintenance drains and fewer live migrations, §2.3)")
}
