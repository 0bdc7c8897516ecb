package cluster

import (
	"fmt"
	"time"

	"lava/internal/features"
	"lava/internal/resources"
)

// VMID identifies a VM within a trace/pool.
type VMID int64

// VM is a virtual machine request and its runtime bookkeeping. The ground
// truth lifetime is carried from the trace for oracle predictors and
// evaluation; scheduling policies must only access it through a
// model.Predictor.
//
// A *VM names one VM from its creation until its exit. After that the
// simulator (sim.Machine) may reuse the object for a VM created at a later
// instant, overwriting every field, so code that keeps a VM past its exit
// must keep its ID or a copy. Pointer identity therefore means "the same VM"
// only together with Created: a reused object always has a later one.
type VM struct {
	ID      VMID
	Shape   resources.Vector
	Feat    features.Features
	Created time.Duration // simulation time the VM was scheduled

	// TrueLifetime is the ground-truth total lifetime from the trace.
	// Policies never read it directly; the Oracle predictor does.
	TrueLifetime time.Duration

	// InitialPrediction is the one-shot lifetime prediction made when the VM
	// was scheduled. LA-Binary treats it as fixed (§2.4); NILAS/LAVA ignore
	// it in favour of repredictions.
	InitialPrediction time.Duration

	// Class is the canonical SLO class the VM was admitted under (empty when
	// the SLO layer is off). It rides the VM through migrations so exits are
	// attributed to the right class wherever they land.
	Class string

	// Host is the current host, or nil before placement / after exit.
	Host *Host

	// BindSlot is a handle a binding cache (scheduler.ExitCache) keeps for
	// the VM: the index of its slot in the cache's own slab. It is only a
	// hint — a cache trusts it when that slot records this VM, object and
	// Created, as its owner — so a VM copied, bound by a second cache, never
	// bound (slot 0) or reused after an exit is simply bound again. An int32
	// keeps VM at 192 bytes.
	BindSlot int32

	// Mark is a flag the scheduling policy keeps on the VM, as BindSlot is
	// the binding cache's: the pool never reads or writes it, and a new VM
	// starts without it. It sits in the padding after BindSlot.
	Mark bool
}

// Uptime returns how long the VM has been running at time now.
func (v *VM) Uptime(now time.Duration) time.Duration {
	if now < v.Created {
		return 0
	}
	return now - v.Created
}

// TrueExit returns the ground-truth exit time (creation + true lifetime).
func (v *VM) TrueExit() time.Duration { return v.Created + v.TrueLifetime }

func (v *VM) String() string {
	return fmt.Sprintf("vm%d(%s)", v.ID, v.Shape)
}
