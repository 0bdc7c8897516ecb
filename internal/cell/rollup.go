package cell

import (
	"fmt"

	"lava/internal/sim"
	"lava/internal/slo"
)

// Rollup aggregates per-cell simulation results into fleet-level metrics.
// In the embedded aggregates the quality averages are host-weighted (a
// 100-host cell counts for twice a 50-host one) and the counters sum. SLO
// merges the cells' per-class summaries: counts sum, and fairness/fitness
// are recomputed from the summed counts and the fleet-level packing
// aggregates — so the rollup is additive, not an average of per-cell
// indices; nil when no cell ran with the SLO layer on.
type Rollup struct {
	Router string
	Hosts  []int
	Cells  []*sim.Result

	sim.Aggregates

	// UtilSpread is max-min of per-cell average CPU utilization: the
	// router's load-balance quality (0 = perfectly even).
	UtilSpread float64
}

// RollUp combines per-cell results. hosts and results must be parallel
// slices in cell order; hosts[i] is cell i's weight in the fleet averages.
func RollUp(router string, hosts []int, results []*sim.Result) (*Rollup, error) {
	if len(hosts) != len(results) || len(results) == 0 {
		return nil, fmt.Errorf("cell: rollup over %d host counts and %d results", len(hosts), len(results))
	}
	r := &Rollup{Router: router, Hosts: hosts, Cells: results}
	var (
		totalHosts, minU, maxU float64
		classes                map[string]*slo.Counts
	)
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("cell: rollup missing result for cell %d", i)
		}
		w := float64(hosts[i])
		totalHosts += w
		r.AvgEmptyHostFrac += w * res.AvgEmptyHostFrac
		r.AvgEmptyToFree += w * res.AvgEmptyToFree
		r.AvgPackingDensity += w * res.AvgPackingDensity
		r.AvgCPUUtil += w * res.AvgCPUUtil
		r.Placements += res.Placements
		r.Exits += res.Exits
		r.Failed += res.Failed
		r.Killed += res.Killed
		r.MigratedOut += res.MigratedOut
		r.MigratedIn += res.MigratedIn
		r.ModelCalls += res.ModelCalls
		if i == 0 || res.AvgCPUUtil < minU {
			minU = res.AvgCPUUtil
		}
		if i == 0 || res.AvgCPUUtil > maxU {
			maxU = res.AvgCPUUtil
		}
		if res.SLO != nil {
			classes = slo.MergeCounts(classes, res.SLO.Classes)
		}
	}
	if totalHosts <= 0 {
		// All-zero (or negative) host counts reach this exported API from
		// callers that build their own host slices; dividing by the zero
		// total would silently turn every average into NaN.
		return nil, fmt.Errorf("cell: rollup over %d total hosts", int(totalHosts))
	}
	r.AvgEmptyHostFrac /= totalHosts
	r.AvgEmptyToFree /= totalHosts
	r.AvgPackingDensity /= totalHosts
	r.AvgCPUUtil /= totalHosts
	r.UtilSpread = maxU - minU
	r.SLO = slo.Summarize(classes, r.AvgPackingDensity, r.AvgEmptyToFree, true)
	return r, nil
}
