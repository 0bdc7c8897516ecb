package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

// ExitCache computes and caches repredicted host exit times — "the maximum
// of the repredicted remaining VM lifetimes on the host" (§4.2) — with the
// refresh policy of Appendix G.3: a host is re-scored when 1) a VM is added,
// 2) a VM exits, or 3) the cached estimate goes stale past the refresh
// interval. A refresh interval of zero disables caching (always recompute).
type ExitCache struct {
	Pred    model.Predictor
	Refresh time.Duration

	entries map[cluster.HostID]exitEntry

	// Predictions counts model invocations, the quantity the caching
	// ablation (Fig. 17) and the latency study (Fig. 8) care about.
	Predictions int64

	// Single-entry memo for the VM being scheduled (see Remaining).
	memoVM  cluster.VMID
	memoNow time.Duration
	memoRem time.Duration
	memoSet bool
}

type exitEntry struct {
	exit       time.Duration
	computedAt time.Duration
}

// NewExitCache builds a cache over the given predictor.
func NewExitCache(pred model.Predictor, refresh time.Duration) *ExitCache {
	return &ExitCache{Pred: pred, Refresh: refresh, entries: make(map[cluster.HostID]exitEntry)}
}

// HostExit returns the estimated absolute exit time of the host: the time
// at which its last VM is predicted to leave. Empty hosts exit "now".
func (c *ExitCache) HostExit(h *cluster.Host, now time.Duration) time.Duration {
	if h.Empty() {
		return now
	}
	if c.Refresh > 0 {
		if e, ok := c.entries[h.ID]; ok && now-e.computedAt < c.Refresh {
			return e.exit
		}
	}
	exit := c.compute(h, now)
	if c.Refresh > 0 {
		c.entries[h.ID] = exitEntry{exit: exit, computedAt: now}
	}
	return exit
}

// compute repredicts every VM on the host and takes the max exit.
func (c *ExitCache) compute(h *cluster.Host, now time.Duration) time.Duration {
	max := now
	h.EachVM(func(vm *cluster.VM) {
		c.Predictions++
		exit := now + c.Pred.PredictRemaining(vm, vm.Uptime(now))
		if exit > max {
			max = exit
		}
	})
	return max
}

// Remaining repredicts the VM's remaining lifetime at time now, memoizing
// the result for the duration of a scheduling pass: scorers consult the
// same VM against every candidate host, but the model only needs to run
// once ("we re-score in parallel VMs only on considered hosts", §5).
func (c *ExitCache) Remaining(vm *cluster.VM, now time.Duration) time.Duration {
	if c.memoVM == vm.ID && c.memoNow == now && c.memoSet {
		return c.memoRem
	}
	c.Predictions++
	rem := c.Pred.PredictRemaining(vm, vm.Uptime(now))
	c.memoVM, c.memoNow, c.memoRem, c.memoSet = vm.ID, now, rem, true
	return rem
}

// PredictVMExit returns the repredicted absolute exit time of a single VM.
func (c *ExitCache) PredictVMExit(vm *cluster.VM, now time.Duration) time.Duration {
	return now + c.Remaining(vm, now)
}

// Invalidate drops the cached entry for a host (called on VM add/exit and
// on LAVA deadline events).
func (c *ExitCache) Invalidate(id cluster.HostID) {
	delete(c.entries, id)
}
