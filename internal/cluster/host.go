package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"lava/internal/resources"
	"lava/internal/simtime"
)

// HostID identifies a host within a pool.
type HostID int32

// HostState is the LAVA host state (§4.3), mirroring LLAMA's page states.
// A uint8 packs it next to Host.Unavailable.
type HostState uint8

// Host states. Hosts without any VM are StateEmpty; the first placement
// under LAVA opens them; once >=90% full they transition to recycling and
// accept only shorter-lived VMs.
const (
	StateEmpty HostState = iota
	StateOpen
	StateRecycling
)

// String renders the state name.
func (s HostState) String() string {
	switch s {
	case StateEmpty:
		return "empty"
	case StateOpen:
		return "open"
	case StateRecycling:
		return "recycling"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RecyclingThreshold is the occupancy fraction (of CPU or memory) at which
// an open host transitions to recycling (§4.3: "over 90% of the resources").
const RecyclingThreshold = 0.9

// Host is a physical machine. All hosts in a pool share one capacity shape
// (§G.2: "all server host hardware is the same within each pool").
//
// A pool allocates its hosts in slabs (see NewPool), and the fields are
// ordered so that a Host takes 104 bytes on 64-bit targets: the residual
// count fills the word after ID, and State shares one with Unavailable.
type Host struct {
	ID HostID

	residuals int32 // VMs on the host whose residual flag is set

	Capacity resources.Vector

	used resources.Vector
	vms  []*VM // hosted VMs in no particular order; nil while never used

	// Unavailable marks hosts drained for defragmentation or maintenance;
	// the scheduler skips them (§4.4). Only sim.Control writes it.
	Unavailable bool

	// LAVA per-host state (§4.3). Class, State and Deadline are maintained
	// by the LAVA policy through the methods below; other policies leave
	// them at their zero values. The residual VMs of the current class
	// epoch carry VM.residual, counted in residuals.
	State    HostState
	Class    simtime.LifetimeClass
	Deadline time.Duration // sim time at which the current class expires
}

// Used returns the currently allocated resource vector.
func (h *Host) Used() resources.Vector { return h.used }

// Free returns the currently free resource vector.
func (h *Host) Free() resources.Vector { return h.Capacity.Sub(h.used) }

// NumVMs returns the number of VMs currently on the host.
func (h *Host) NumVMs() int { return len(h.vms) }

// Empty reports whether no VM is running on the host.
func (h *Host) Empty() bool { return len(h.vms) == 0 }

// Fits reports whether a VM of the given shape fits into the free capacity.
func (h *Host) Fits(shape resources.Vector) bool {
	return shape.Fits(h.Free())
}

// VM returns the VM with the given ID, or nil.
func (h *Host) VM(id VMID) *VM {
	if k := h.find(id); k >= 0 {
		return h.vms[k]
	}
	return nil
}

// find returns the index of the VM with the given ID in vms, or -1. A host
// holds tens of VMs, so the scan is short; in exchange EachVM walks a
// slice, not a map, and ExitCache.compute walks a host's VMs on every
// reprediction of it.
func (h *Host) find(id VMID) int {
	for k, vm := range h.vms {
		if vm.ID == id {
			return k
		}
	}
	return -1
}

// VMs returns the hosted VMs sorted by ID. Sorting keeps every consumer
// deterministic; no scheduling decision may depend on the order in which
// the host stores its VMs.
func (h *Host) VMs() []*VM {
	out := make([]*VM, len(h.vms))
	copy(out, h.vms)
	slices.SortFunc(out, byID)
	return out
}

// byID orders VMs by ID, for slices.SortFunc.
func byID(a, b *VM) int { return cmp.Compare(a.ID, b.ID) }

// EachVM calls fn for every hosted VM in no particular order, without
// allocating. For order-free folds only (a max, a sum, a count): anything
// whose result depends on the order of visits goes through VMs.
func (h *Host) EachVM(fn func(*VM)) {
	for _, vm := range h.vms {
		fn(vm)
	}
}

// admit returns why vm cannot join the host — its ID is already present or
// its shape does not fit — or nil. Pool.Place and Pool.Migrate ask before
// they change anything.
func (h *Host) admit(vm *VM) error {
	if h.find(vm.ID) >= 0 {
		return fmt.Errorf("host %d: vm %d already present", h.ID, vm.ID)
	}
	if !h.Fits(vm.Shape) {
		return fmt.Errorf("host %d: vm %d (%s) does not fit free %s", h.ID, vm.ID, vm.Shape, h.Free())
	}
	return nil
}

// add places vm, which admit accepted, on the host. Callers go through
// Pool.Place/Migrate.
func (h *Host) add(vm *VM) {
	h.vms = append(h.vms, vm)
	h.used = h.used.Add(vm.Shape)
	vm.Host = h
	vm.residual = false // a VM joins a host's current epoch, never its residual set
}

// remove releases the VM with the given ID, which the host runs. Callers go
// through Pool.Exit/Migrate, whose VM index names the host.
func (h *Host) remove(id VMID) *VM {
	k := h.find(id)
	vm := h.vms[k]
	last := len(h.vms) - 1
	h.vms[k] = h.vms[last]
	h.vms[last] = nil
	h.vms = h.vms[:last]
	if vm.residual {
		vm.residual = false
		h.residuals--
	}
	h.used = h.used.Sub(vm.Shape)
	vm.Host = nil
	return vm
}

// MaxUtilization returns the max of CPU and memory utilization, the LAVA
// open->recycling trigger quantity.
func (h *Host) MaxUtilization() float64 {
	return resources.MaxUtilization(h.used, h.Capacity)
}

// --- LAVA state machine -------------------------------------------------

// OpenAs transitions an empty host to the open state with the given class,
// setting its misprediction deadline to now + 1.1x the class upper bound.
func (h *Host) OpenAs(class simtime.LifetimeClass, now time.Duration) {
	h.State = StateOpen
	h.Class = class
	h.Deadline = now + class.Deadline()
}

// StartRecycling transitions an open host to recycling. All VMs currently
// present become the residual set (§4.3).
func (h *Host) StartRecycling() {
	h.State = StateRecycling
	h.markAllResidual()
}

// markAllResidual labels every current VM as residual.
func (h *Host) markAllResidual() {
	for _, vm := range h.vms {
		vm.residual = true
	}
	h.residuals = int32(len(h.vms))
}

// ResidualCount returns the number of residual VMs still running.
func (h *Host) ResidualCount() int { return int(h.residuals) }

// IsResidual reports whether the VM is part of the residual set.
func (h *Host) IsResidual(id VMID) bool {
	k := h.find(id)
	return k >= 0 && h.vms[k].residual
}

// DemoteClass reduces the host's lifetime class by one after all residual
// VMs exited (Fig. 5b). The remaining VMs become the new residual set and
// the deadline restarts for the new class.
func (h *Host) DemoteClass(now time.Duration) {
	h.Class = h.Class.Dec()
	h.Deadline = now + h.Class.Deadline()
	h.markAllResidual()
}

// PromoteClass bumps the host's lifetime class after a deadline expiry, the
// misprediction-adaptation move (Fig. 5c). All current VMs become residual.
func (h *Host) PromoteClass(now time.Duration) {
	h.Class = h.Class.Inc()
	h.Deadline = now + h.Class.Deadline()
	h.markAllResidual()
}

// ResetLAVA clears all LAVA state; used when a host becomes empty.
func (h *Host) ResetLAVA() {
	h.State = StateEmpty
	h.Class = 0
	h.Deadline = 0
	for _, vm := range h.vms {
		vm.residual = false
	}
	h.residuals = 0
}

func (h *Host) String() string {
	return fmt.Sprintf("host%d[%s %s vms=%d used=%s]", h.ID, h.State, h.Class, len(h.vms), h.used)
}
