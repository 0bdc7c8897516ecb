// Defragmentation example: drive the defrag engine over a busy pool and
// compare LARS ordering (longest-remaining-lifetime first) against a
// lifetime-agnostic baseline, reproducing the Table 2 mechanics: VMs that
// exit while waiting for a migration slot save their migrations.
//
// Run with: go run ./examples/defrag
package main

import (
	"fmt"
	"log"
	"time"

	"lava"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/sim"
)

func main() {
	tr, err := lava.GenerateTrace(lava.TraceConfig{
		Name: "defrag-demo", Hosts: 48, TargetUtil: 0.6,
		Days: 6, PrefillDays: 10, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Run the pool once with the defrag engine, a sim.Injector ticked with
	// the simulator clock, recording its plan: which hosts were drained
	// when, and each VM's predicted remaining lifetime. Its migrations go
	// where the run's policy places them.
	engine := defrag.New(defrag.Config{
		Pred:          model.Oracle{},
		Threshold:     0.95, // defragment aggressively for the demo
		HostsPerRound: 8,
		CheckEvery:    2 * time.Hour,
	})
	res, err := sim.Run(sim.Config{
		Trace:     tr,
		Policy:    scheduler.NewWasteMin(),
		Injectors: []sim.Injector{engine},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d placements; defrag drained %d hosts in %d rounds\n",
		res.Placements, engine.Stats.HostsFreed, engine.Stats.Rounds)
	fmt.Printf("live engine: planned %d, performed %d, saved %d by natural exits\n\n",
		engine.Stats.Planned, engine.Stats.Performed, engine.Stats.Saved)

	// Replay the identical plan through the 3-slot, 20-minute-per-copy
	// migration queue under both orderings (the paper's methodology, §5.1).
	base := defrag.ReplayPlan(engine.Plan, defrag.OrderShuffled)
	lars := defrag.ReplayPlan(engine.Plan, defrag.OrderLARS)

	fmt.Println("ordering        | planned | performed | saved")
	fmt.Printf("baseline        | %7d | %9d | %d\n", base.Planned, base.Performed, base.Saved)
	fmt.Printf("LARS            | %7d | %9d | %d\n", lars.Planned, lars.Performed, lars.Saved)
	if base.Performed > 0 {
		fmt.Printf("\nLARS reduces live migrations by %.2f%% (paper, Table 2: 4.3-4.6%%)\n",
			100*(1-float64(lars.Performed)/float64(base.Performed)))
	}
}
