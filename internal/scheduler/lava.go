package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/simtime"
)

// LAVA is Lifetime-Aware VM Allocation (§4.3). Where LA and NILAS place
// VMs with similar lifetimes together, LAVA does the opposite: it fills
// gaps on hosts with VMs at least one lifetime class (10x) *shorter* than
// the host, so that mispredicted fillers are unlikely to extend the host's
// lifetime. Hosts move through empty -> open -> recycling states; all-
// residuals-exited demotes a host one class (Fig. 5b), deadline expiry
// promotes it one class (Fig. 5c) — the adaptation to mispredictions. The
// states live in the policy's own slab (hosts.go), one slot per host and
// occupancy, so an empty host is empty however its last occupant left.
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
// covered by the pool's HostChanged events, and so is a host going empty
// without one; OnTick promotions announce themselves through
// Pool.InvalidateHost.
func NewLAVA(pred model.Predictor, refresh time.Duration) *LAVA {
	return newLAVA("lava", pred, refresh, 0)
}

// newLAVA is both LAVA constructors: the class level above NILAS's chain,
// cached under a (shape, VM lifetime class) context, with the temporal level
// of the given epoch (0: exact) dynamic below it.
func newLAVA(name string, pred model.Predictor, refresh, epoch time.Duration) *LAVA {
	l := &LAVA{}
	l.init(name, pred, refresh, epoch, l.classScorer())
	l.ClassOf = func(vm *cluster.VM, now time.Duration) int32 { return int32(l.vmClass(vm, now)) }
	return l
}

// vmClass computes the VM's lifetime class from a (re)prediction at its
// current uptime — new VMs at uptime zero, migrating VMs at their age.
func (l *LAVA) vmClass(vm *cluster.VM, now time.Duration) simtime.LifetimeClass {
	return simtime.ClassOf(l.cache.Remaining(vm, now))
}

// classScorer is the LAVA class level of both constructors. A blank host
// is empty and so reads as the zero slot: it always scores 6.
func (l *LAVA) classScorer() Scorer {
	return ScorerFunc{FuncName: "lava-class", F: l.classScore, blankAlike: true}
}

// classScore is the LAVA coarse-grained preference level.
func (l *LAVA) classScore(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	vc := l.vmClass(vm, now)
	sl := l.hosts.get(h)
	switch {
	case sl.state == stateRecycling && sl.class > vc:
		// Closer classes first: LC(v)+1 scores 1, +2 scores 2, +3 scores 3.
		return float64(sl.class - vc)
	case sl.state == stateOpen && sl.class == vc:
		return 4
	case !h.Empty():
		return 5
	default:
		return 6
	}
}

// OnPlaced implements Policy: drive the host state machine. The placed VM
// joins the host's current class epoch, never its residual set.
func (l *LAVA) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	l.NILAS.OnPlaced(pool, h, vm, now)
	vm.Mark = false
	sl := l.hosts.at(h)
	if sl.state == stateEmpty {
		// First VM opens the host with the VM's class (§4.3).
		sl.state = stateOpen
		sl.setClass(l.vmClass(vm, now), now)
	}
	if sl.state == stateOpen && resources.MaxUtilization(h.Used(), h.Capacity) >= recyclingThreshold {
		// Over 90% full: transition to recycling; current VMs become
		// residual (§4.3).
		sl.state = stateRecycling
		markResidual(h)
	}
}

// OnExited implements Policy: demote a recycling host once its residual
// VMs have all left, which is read off the host's VMs; a copy window on
// the host is not one. An emptied host needs no reset: it reads as empty.
func (l *LAVA) OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	l.NILAS.OnExited(pool, h, vm, now)
	if sl := l.hosts.get(h); sl.state == stateRecycling && residuals(h) == 0 {
		// All residual VMs exited: the remaining VMs are of the next-lower
		// class; re-classify the host down (Fig. 5b).
		l.reclass(h, sl.class.Dec(), now)
	}
}

// OnTick implements Policy: deadline expiry detection (Fig. 5c). A host
// that outlives its class deadline was under-predicted; promote it one
// class and restart the clock. The sweep visits the occupied hosts in
// host-ID order.
func (l *LAVA) OnTick(pool *cluster.Pool, now time.Duration) {
	for _, h := range pool.Hosts() {
		if sl := l.hosts.get(h); sl.state != stateEmpty && now > sl.deadline {
			l.reclass(h, sl.class.Inc(), now)
			l.cache.Invalidate(h.ID)
			// A promotion changes the host's class score without any pool
			// mutation; announce it so score caches re-bucket the host.
			pool.InvalidateHost(h.ID)
		}
	}
}

// reclass moves an occupied host to another class, demoted after its
// residual set drained (Fig. 5b) or promoted past its deadline (Fig. 5c):
// the deadline restarts for the new class and the VMs now on the host
// become its residual set.
func (l *LAVA) reclass(h *cluster.Host, class simtime.LifetimeClass, now time.Duration) {
	l.hosts.at(h).setClass(class, now)
	markResidual(h)
}

// markResidual makes every VM on the host residual.
func markResidual(h *cluster.Host) {
	h.EachVM(func(vm *cluster.VM) { vm.Mark = true })
}

// residuals counts the residual VMs still on the host.
func residuals(h *cluster.Host) int {
	n := 0
	h.EachVM(func(vm *cluster.VM) {
		if vm.Mark {
			n++
		}
	})
	return n
}
