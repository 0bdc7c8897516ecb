package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"lava/internal/resources"
)

// HostID identifies a host within a pool.
type HostID int32

// Host is a physical machine. All hosts in a pool share one capacity shape
// (§G.2: "all server host hardware is the same within each pool").
//
// A pool allocates its hosts in slabs (see NewPool), and the fields are
// ordered so that a Host takes 88 bytes on 64-bit targets: the occupancy
// count fills the word after ID, and the drain-claim and reservation
// counts the padding after the VM slice.
type Host struct {
	ID HostID

	occupancy uint32 // see Occupancy

	Capacity resources.Vector

	used resources.Vector
	vms  []*VM // hosted VMs in no particular order; nil while never used

	claims uint16 // drain claims on the host (Pool.Withdraw); see Unavailable
	holds  uint16 // live reservations on the host (Pool.Reserve)
}

// Unavailable reports whether the host is drained for defragmentation or
// maintenance: some drain claim (Pool.Withdraw) holds it, so the scheduler
// skips it (§4.4). A claim takes no capacity and leaves Empty and
// Occupancy alone.
func (h *Host) Unavailable() bool { return h.claims > 0 }

// Used returns the currently allocated resource vector: the shapes of the
// hosted VMs plus those of the host's reservations.
func (h *Host) Used() resources.Vector { return h.used }

// Free returns the currently free resource vector.
func (h *Host) Free() resources.Vector { return h.Capacity.Sub(h.used) }

// NumVMs returns the number of VMs currently on the host.
func (h *Host) NumVMs() int { return len(h.vms) }

// Empty reports whether the host runs no VM and holds no reservation.
func (h *Host) Empty() bool { return len(h.vms) == 0 && h.holds == 0 }

// Occupancy numbers the host's occupancies, the runs of VMs and
// reservations it holds between two times it is empty: the count grows by
// one each time the host goes empty, however its last occupant left, and a
// host that takes the ID of a removed one starts past its predecessor's
// count. A policy that keeps per-host state stamped with the occupancy it
// was written in therefore finds that state void once the host has been
// empty, and needs no hook to reset it.
func (h *Host) Occupancy() uint32 { return h.occupancy }

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
// reprediction of it. The pool's mutators never scan by ID: they find a VM
// through the pool's index (Pool.VM).
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

// admit returns why vm cannot join the host — its shape does not fit — or
// nil. Pool.Place and Pool.Migrate ask before they change anything; the
// pool's VM index already refuses an ID that runs anywhere.
func (h *Host) admit(vm *VM) error {
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
}

// remove releases vm, which the host runs. Callers go through
// Pool.Exit/Migrate, which find vm in the pool's VM index; the host's scan
// compares pointers and reads no VM. A host it leaves empty ends its
// occupancy.
func (h *Host) remove(vm *VM) {
	k := slices.Index(h.vms, vm)
	last := len(h.vms) - 1
	h.vms[k] = h.vms[last]
	h.vms[last] = nil
	h.vms = h.vms[:last]
	h.used = h.used.Sub(vm.Shape)
	vm.Host = nil
	if h.Empty() {
		h.occupancy++
	}
}

func (h *Host) String() string {
	return fmt.Sprintf("host%d[vms=%d used=%s]", h.ID, len(h.vms), h.used)
}
