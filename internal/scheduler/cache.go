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
// Cached host estimates live in a slice indexed by host ID, grown on demand.
//
// When Pred has a Steps method (see model.Predictor) — the forest's plain
// steps or the distribution table's ramp steps — the cache binds each VM's
// step function on the VM's first prediction and answers its
// repredictions from a model.StepCursor, bit-equal to PredictRemaining.
// The bindings live in a slab of slots; a VM finds its slot through the
// handle it carries (cluster.VM.BindSlot), which the cache trusts only when
// the slot records that VM as its owner: the same object, created at the
// same instant. A VM another cache rebound, or a copy of a bound VM, fails
// that check and is bound again, to the same step function; so does an
// object sim.Machine reused for a new VM after an exit this cache never
// heard of (the idle arm of a Switched rollout), whose Created is later and
// whose step function may differ. NILAS.OnExited releases a VM's binding;
// each time the binding count has doubled, a sweep releases the slots of
// VMs that have no host — gone without the hook (an exit another policy
// heard of) or never placed — and the slots their VM no longer owns.
type ExitCache struct {
	Pred    model.Predictor
	Refresh time.Duration

	entries []exitEntry // by host ID

	// Predictions counts model invocations, the quantity the caching
	// ablation (Fig. 17) and the latency study (Fig. 8) care about.
	Predictions int64

	// Single-entry memo for the VM being scheduled (see Remaining). It is
	// keyed on the VM object and the instant, not the ID: an ID reused at
	// the same instant names another VM, and sim.Machine gives it another
	// object, since it reuses an exited VM's object only at a later instant.
	memoVM  *cluster.VM
	memoNow time.Duration
	memoRem time.Duration

	// Bindings, when Pred has a Steps method: each VM predicted since its
	// last drop or sweep owns a slot, whose cursor has a nil Fn.Rem when
	// Steps declined the VM. free lists the released slots, bound counts
	// the owned ones, and sweepAt is the count that triggers the next sweep.
	stepper stepper
	slots   []binding
	free    []int32
	bound   int
	sweepAt int
}

// binding is one slot of the slab: the VM that owns it, nil when free, its
// creation instant, and the VM's cursor.
type binding struct {
	vm      *cluster.VM
	created time.Duration
	cur     model.StepCursor
}

// owns reports whether the slot is vm's: the same object, still the VM it
// was bound as (a reused object has a later Created).
func (b *binding) owns(vm *cluster.VM) bool { return b.vm == vm && b.created == vm.Created }

// stepper is a predictor that can hand out a VM's answers as a step
// function of its uptime, bit-equal to its PredictRemaining.
type stepper interface {
	Steps(vm *cluster.VM) (model.StepFn, bool)
}

// minSweep is the binding count below which the cache does not sweep.
const minSweep = 256

// exitEntry is a host's cached exit estimate; ok is false when the host has
// none.
type exitEntry struct {
	exit       time.Duration
	computedAt time.Duration
	ok         bool
}

// NewExitCache builds a cache over the given predictor, which must not
// change afterwards.
func NewExitCache(pred model.Predictor, refresh time.Duration) *ExitCache {
	c := &ExitCache{Pred: pred, Refresh: refresh}
	if st, ok := pred.(stepper); ok {
		c.stepper, c.sweepAt = st, minSweep
	}
	return c
}

// HostExit returns the estimated absolute exit time of the host: the time
// at which its last VM is predicted to leave. Empty hosts exit "now".
func (c *ExitCache) HostExit(h *cluster.Host, now time.Duration) time.Duration {
	if h.Empty() {
		return now
	}
	id := int(h.ID)
	if c.Refresh > 0 && id < len(c.entries) {
		if e := c.entries[id]; e.ok && now-e.computedAt < c.Refresh {
			return e.exit
		}
	}
	exit := c.compute(h, now)
	if c.Refresh > 0 {
		if id >= len(c.entries) {
			c.entries = append(c.entries, make([]exitEntry, id+1-len(c.entries))...)
		}
		c.entries[id] = exitEntry{exit: exit, computedAt: now, ok: true}
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
	b := c.slot(vm)
	if b == nil {
		b = c.bind(vm)
	}
	if b.cur.Fn.Rem == nil {
		return c.Pred.PredictRemaining(vm, uptime)
	}
	return b.cur.Remaining(uptime)
}

// slot returns the VM's binding, or nil when its handle names no slot of
// this cache that it owns.
func (c *ExitCache) slot(vm *cluster.VM) *binding {
	if i := int(vm.BindSlot); i < len(c.slots) && c.slots[i].owns(vm) {
		return &c.slots[i]
	}
	return nil
}

// bind binds the VM's step function to a free slot and points the VM's
// handle at it, sweeping first when the bindings have doubled. The slot's
// cursor stays empty when the predictor has no step function for the VM.
func (c *ExitCache) bind(vm *cluster.VM) *binding {
	if c.bound >= c.sweepAt {
		c.sweep()
	}
	var i int32
	if n := len(c.free); n > 0 {
		i, c.free = c.free[n-1], c.free[:n-1]
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, binding{})
	}
	b := &c.slots[i] // zero: fresh, or cleared by release
	b.vm, b.created = vm, vm.Created
	if fn, ok := c.stepper.Steps(vm); ok {
		b.cur.Fn = fn
	}
	vm.BindSlot = i
	c.bound++
	return b
}

// drop releases the VM's binding, if it has one.
func (c *ExitCache) drop(vm *cluster.VM) {
	if c.slot(vm) != nil {
		c.release(vm.BindSlot)
	}
}

// release frees an owned slot.
func (c *ExitCache) release(i int32) {
	c.slots[i] = binding{}
	c.free = append(c.free, i)
	c.bound--
}

// sweep releases the slots of VMs without a host — gone without a hook, or
// never placed — and the slots their VM no longer owns: the ones its handle
// no longer names, which a rebinding left behind, and those of an object
// reused for another VM. A VM still being scheduled loses its binding too
// and binds again on its next prediction, to the same step function.
func (c *ExitCache) sweep() {
	for i := range c.slots {
		if b := &c.slots[i]; b.vm != nil && (b.vm.Host == nil || c.slot(b.vm) != b) {
			c.release(int32(i))
		}
	}
	c.sweepAt = max(2*c.bound, minSweep)
}

// PredictVMExit returns the repredicted absolute exit time of a single VM.
func (c *ExitCache) PredictVMExit(vm *cluster.VM, now time.Duration) time.Duration {
	return now + c.Remaining(vm, now)
}

// Invalidate drops the cached entry for a host (called on VM add/exit and
// on LAVA deadline events).
func (c *ExitCache) Invalidate(id cluster.HostID) {
	if uint(id) < uint(len(c.entries)) {
		c.entries[id].ok = false
	}
}
