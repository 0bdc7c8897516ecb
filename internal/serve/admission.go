package serve

// Front-door admission: the fleet-level half of the SLO layer.
//
// A single Server needs no code here — its token buckets live inside its
// sim.Machine, so a served replay and an offline sim.Run admit identically
// by construction. A Fleet, though, must decide admission before routing: a
// rejected request may not move the round-robin cursor, enter the
// commitment ledger, or reach a cell. The gate therefore hangs off the
// topology ledger and is consulted in topology.plan, under the fleet mutex
// at the op's front-door turn, so the admit/reject stream is a pure function
// of the sequenced op order. The cells behind it only track their classes
// (cellSLO), and a drain folds the gate's counters into the rollup
// (drainCells). RunScriptOffline drives the same Fleet in program order, so
// an online and an offline run of one stream share every admission decision
// — which, not replayed luck, is what makes the classed drain reports
// byte-identical.

import "lava/internal/slo"

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
