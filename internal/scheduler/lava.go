package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/simtime"
)

// LAVA is Lifetime-Aware VM Allocation (§4.3). Where LA and NILAS place
// VMs with similar lifetimes together, LAVA does the opposite: it fills
// gaps on hosts with VMs at least one lifetime class (10x) *shorter* than
// the host, so that mispredicted fillers are unlikely to extend the host's
// lifetime. Hosts move through empty -> open -> recycling states; all-
// residuals-exited demotes a host one class (Fig. 5b), deadline expiry
// promotes it one class (Fig. 5c) — the adaptation to mispredictions.
//
// Host preference for a VM of class LC(v), per Algorithm 3:
//  1. recycling hosts with class > LC(v), closer classes first,
//  2. open hosts with class == LC(v),
//  3. any non-empty host,
//  4. empty hosts,
//
// with ties at each level broken by the NILAS scorers — which is the type:
// LAVA is NILAS plus the class level above the temporal cost, and the host
// state machine run from the hooks after NILAS's own.
type LAVA struct {
	NILAS
}

// NewLAVA builds the LAVA policy over the given predictor. refresh is the
// host-score cache interval (Appendix G.3).
//
// On the incremental engine the class preference and packing levels are
// cached under a (shape, VM lifetime class) context — the class score is a
// pure function of host state and the VM's class — while the temporal cost
// stays dynamic. Host state transitions driven from the policy hooks are
// covered by the pool's place/exit events; OnTick promotions announce
// themselves through Pool.InvalidateHost.
func NewLAVA(pred model.Predictor, refresh time.Duration) *LAVA {
	l := &LAVA{}
	l.init("lava", pred, refresh, 0, ScorerFunc{FuncName: "lava-class", F: l.classScore})
	l.ClassOf = func(vm *cluster.VM, now time.Duration) int32 { return int32(l.vmClass(vm, now)) }
	return l
}

// vmClass computes the VM's lifetime class from a (re)prediction at its
// current uptime — new VMs at uptime zero, migrating VMs at their age.
func (l *LAVA) vmClass(vm *cluster.VM, now time.Duration) simtime.LifetimeClass {
	return simtime.ClassOf(l.cache.Remaining(vm, now))
}

// classScore is the LAVA coarse-grained preference level.
func (l *LAVA) classScore(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	vc := l.vmClass(vm, now)
	switch {
	case h.State == cluster.StateRecycling && h.Class > vc:
		// Closer classes first: LC(v)+1 scores 1, +2 scores 2, +3 scores 3.
		return float64(h.Class - vc)
	case h.State == cluster.StateOpen && h.Class == vc:
		return 4
	case !h.Empty():
		return 5
	default:
		return 6
	}
}

// OnPlaced implements Policy: drive the host state machine.
func (l *LAVA) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	l.NILAS.OnPlaced(pool, h, vm, now)
	if h.State == cluster.StateEmpty {
		// First VM opens the host with the VM's class (§4.3).
		h.OpenAs(l.vmClass(vm, now), now)
	}
	if h.State == cluster.StateOpen && h.MaxUtilization() >= cluster.RecyclingThreshold {
		// Over 90% full: transition to recycling; current VMs become
		// residual (§4.3).
		h.StartRecycling()
	}
}

// OnExited implements Policy: demote on residual drain, reset on empty.
func (l *LAVA) OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	l.NILAS.OnExited(pool, h, vm, now)
	if h.Empty() {
		h.ResetLAVA()
		return
	}
	if h.State == cluster.StateRecycling && h.ResidualCount() == 0 {
		// All residual VMs exited: the remaining VMs are of the next-lower
		// class; re-classify the host down (Fig. 5b).
		h.DemoteClass(now)
	}
}

// OnTick implements Policy: deadline expiry detection (Fig. 5c). A host
// that outlives its class deadline was under-predicted; promote it one
// class and restart the clock. The sweep runs every tick, so it iterates
// only occupied hosts via the pool's free-capacity index.
func (l *LAVA) OnTick(pool *cluster.Pool, now time.Duration) {
	pool.ForEachNonEmpty(func(h *cluster.Host) {
		if h.State == cluster.StateEmpty {
			return
		}
		if now > h.Deadline {
			h.PromoteClass(now)
			l.cache.Invalidate(h.ID)
			// A promotion changes the host's class score without any pool
			// mutation; announce it so score caches re-bucket the host.
			pool.InvalidateHost(h.ID)
		}
	})
}
