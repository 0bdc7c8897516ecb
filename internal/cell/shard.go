package cell

import (
	"fmt"

	"lava/internal/trace"
)

// SplitHosts divides total hosts across n cells as evenly as possible, the
// remainder going to the lowest-index cells.
func SplitHosts(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

// Plan is a sharded workload: one sub-trace per cell, ready to simulate
// independently.
type Plan struct {
	Router string
	Hosts  []int          // per-cell host counts
	Cells  []*trace.Trace // per-cell traces, same warm-up and measurement end as the base
}

// PlanCells is the one-call sharding pipeline: split the trace's hosts
// evenly, build the named router's ledger over them, and shard. The
// offline run of a fleet (the facade, lavasim) is the serve.Fleet itself,
// driven in program order by serve.RunScriptOffline; this sharded path
// shares only the ledger and the simulator with it. Its callers are the
// scenarios experiment — kept as the independent sharded oracle
// TestCachedMatchesExhaustiveMatrices diffs — and the parity tests.
func PlanCells(tr *trace.Trace, routerKind string, cells int) (*Plan, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("cell: %d cells", cells)
	}
	if tr.Hosts < cells {
		return nil, fmt.Errorf("cell: %d hosts cannot form %d cells", tr.Hosts, cells)
	}
	l, err := NewLedger(routerKind, SplitHosts(tr.Hosts, cells))
	if err != nil {
		return nil, err
	}
	return Shard(tr, l)
}

// Shard partitions the trace across the ledger's cells by walking the
// trace's whole event stream (trace.Events: by time, exits before creates,
// then VM ID) through it — every create routed, every exit releasing its
// commitment — which is exactly the stream a served replay of the trace
// feeds the fleet's ledger. Each cell's records come out in canonical order,
// and every shard carries the base trace's End() as its horizon: cells of one
// federation share a measurement window even when the header sets none.
func Shard(tr *trace.Trace, l *Ledger) (*Plan, error) {
	p := &Plan{Router: l.Kind, Hosts: append([]int(nil), l.Hosts...), Cells: make([]*trace.Trace, len(l.Hosts))}
	end := tr.End()
	for i := range p.Cells {
		p.Cells[i] = &trace.Trace{
			PoolName: fmt.Sprintf("%s/cell-%d", tr.PoolName, i),
			Hosts:    l.Hosts[i],
			HostCPU:  tr.HostCPU,
			HostMem:  tr.HostMem,
			HostSSD:  tr.HostSSD,
			WarmUp:   tr.WarmUp,
			Horizon:  end,
		}
	}
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EventExit {
			l.Exit(ev.Rec.ID)
			continue
		}
		c := l.Route(&ev.Rec)
		if c < 0 {
			return nil, fmt.Errorf("cell: no routable cell for record %d", ev.Rec.ID)
		}
		p.Cells[c].Records = append(p.Cells[c].Records, ev.Rec)
	}
	return p, nil
}
