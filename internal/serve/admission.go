package serve

// Front-door admission: the fleet-level half of the SLO layer.
//
// A single Server needs no code here — its token buckets live inside the
// shared sim.Machine, so online and offline runs admit identically by
// construction. A Fleet, though, must decide admission before routing: a
// rejected request may not move the round-robin cursor, enter the
// commitment ledger, or reach a cell. The gate therefore
// hangs off the topology ledger (the one structure the online Fleet and the
// offline script runner already share verbatim) and is consulted at the
// global sequencing turn, under the fleet mutex online and in plain program
// order offline. Everything in this file is used symmetrically by both
// arms; that symmetry — not replayed luck — is what makes the classed drain
// reports byte-identical.

import (
	"lava/internal/cell"
	"lava/internal/slo"
)

// cellSLO derives the per-cell SLO config from the fleet's: cells behind an
// admission gate run tracking-only buckets (the front door already enforced
// the limits; a second enforcement would double-charge every class), and
// with no fleet gate the cells carry no SLO layer at all.
func cellSLO(cfg *FleetConfig) *slo.Config {
	if cfg.SLO.Normalize() == nil {
		return nil
	}
	return &slo.Config{Track: true}
}

// attachFrontDoorLocked folds the topology gate's admission counters into a
// drain rollup: admitted/rejected from the front door, per-class lifecycle
// counts from the cells, fairness and fitness recomputed from the merged
// totals and the rollup's packing aggregates. No-op without a gate. The
// caller holds whatever lock guards the topology (the fleet mutex online;
// the script runner is single-threaded).
func attachFrontDoorLocked(topo *topology, roll *cell.Rollup) {
	if topo.gate == nil || roll == nil {
		return
	}
	roll.SLO = slo.MergeFrontDoor(
		topo.gate.Counts(),
		[]*slo.Summary{roll.SLO},
		roll.AvgPackingDensity,
		roll.AvgEmptyToFree,
		true,
	)
}
