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
//
// When Pred has a Steps method (see model.Predictor), the cache binds each
// VM's step function on the VM's first prediction and answers its
// repredictions from a model.StepCursor, bit-equal to PredictRemaining.
// The bindings live in a slab of cursors indexed by VM. NILAS.OnExited
// releases a VM's binding; each time the binding count has doubled, a
// sweep releases those of VMs that have no host: gone without the hook (a
// defrag placeholder, a direct pool.Exit, an exit another policy heard of)
// or never placed.
type ExitCache struct {
	Pred    model.Predictor
	Refresh time.Duration

	entries map[cluster.HostID]exitEntry

	// Predictions counts model invocations, the quantity the caching
	// ablation (Fig. 17) and the latency study (Fig. 8) care about.
	Predictions int64

	// Single-entry memo for the VM being scheduled (see Remaining). It is
	// keyed on the VM object, not its ID: an ID reused at the same instant
	// names another VM.
	memoVM  *cluster.VM
	memoNow time.Duration
	memoRem time.Duration

	// Bindings, when Pred has a Steps method: each VM predicted since its
	// last drop or sweep maps to its cursor in steps, or to -1 when Steps
	// declined it. free lists the released cursors; sweepAt is the binding
	// count that triggers the next sweep.
	stepper stepper
	bound   map[*cluster.VM]int32
	steps   []model.StepCursor
	free    []int32
	sweepAt int
}

// stepper is a predictor that can hand out a VM's answers as a step
// function of its uptime, bit-equal to its PredictRemaining.
type stepper interface {
	Steps(vm *cluster.VM) (model.StepFn, bool)
}

// minSweep is the binding count below which the cache does not sweep.
const minSweep = 256

type exitEntry struct {
	exit       time.Duration
	computedAt time.Duration
}

// NewExitCache builds a cache over the given predictor, which must not
// change afterwards.
func NewExitCache(pred model.Predictor, refresh time.Duration) *ExitCache {
	c := &ExitCache{Pred: pred, Refresh: refresh, entries: make(map[cluster.HostID]exitEntry)}
	if st, ok := pred.(stepper); ok {
		c.stepper, c.bound, c.sweepAt = st, make(map[*cluster.VM]int32), minSweep
	}
	return c
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
		exit := now + c.predict(vm, now)
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
	if c.memoVM == vm && c.memoNow == now {
		return c.memoRem
	}
	rem := c.predict(vm, now)
	c.memoVM, c.memoNow, c.memoRem = vm, now, rem
	return rem
}

// predict is one model call: the VM's remaining lifetime at time now.
func (c *ExitCache) predict(vm *cluster.VM, now time.Duration) time.Duration {
	c.Predictions++
	uptime := vm.Uptime(now)
	if c.stepper == nil {
		return c.Pred.PredictRemaining(vm, uptime)
	}
	i, ok := c.bound[vm]
	if !ok {
		i = c.bind(vm)
	}
	if i < 0 {
		return c.Pred.PredictRemaining(vm, uptime)
	}
	return c.steps[i].Remaining(uptime)
}

// bind binds the VM's step function and returns its cursor, or -1 when the
// predictor has none for it, sweeping first when the bindings have doubled.
func (c *ExitCache) bind(vm *cluster.VM) int32 {
	if len(c.bound) >= c.sweepAt {
		c.sweep()
	}
	i := int32(-1)
	if fn, ok := c.stepper.Steps(vm); ok {
		if n := len(c.free); n > 0 {
			i, c.free = c.free[n-1], c.free[:n-1]
		} else {
			i = int32(len(c.steps))
			c.steps = append(c.steps, model.StepCursor{})
		}
		c.steps[i] = model.StepCursor{Fn: fn}
	}
	c.bound[vm] = i
	return i
}

// drop releases the VM's binding, if it has one.
func (c *ExitCache) drop(vm *cluster.VM) {
	i, ok := c.bound[vm]
	if !ok {
		return
	}
	delete(c.bound, vm)
	if i >= 0 {
		c.steps[i] = model.StepCursor{}
		c.free = append(c.free, i)
	}
}

// sweep drops the bindings of VMs without a host: gone without a hook, or
// never placed. A VM still being scheduled loses its binding too and binds
// again on its next prediction, to the same step function.
func (c *ExitCache) sweep() {
	for vm := range c.bound {
		if vm.Host == nil {
			c.drop(vm)
		}
	}
	c.sweepAt = max(2*len(c.bound), minSweep)
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
