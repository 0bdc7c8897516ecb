package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/simtime"
)

// hostState is LAVA's state of a host (§4.3), mirroring LLAMA's page
// states: a host with no VM is empty, the first placement opens it with the
// VM's lifetime class, and once it is over 90% full it recycles, taking
// only VMs of lower classes while its residual VMs drain.
type hostState uint8

// LAVA's host states.
const (
	stateEmpty hostState = iota
	stateOpen
	stateRecycling
)

// recyclingThreshold is the occupancy fraction (of CPU or memory) at which
// an open host starts recycling (§4.3: "over 90% of the resources").
const recyclingThreshold = 0.9

// hostSlot is what the lifetime policies keep about one host for one of its
// occupancies (cluster.Host.Occupancy): LAVA's state, class and deadline,
// and the epoch temporal level's running max of exits. The residual set of
// a recycling host is the VMs on it that carry cluster.VM.Mark.
type hostSlot struct {
	class    simtime.LifetimeClass
	deadline time.Duration // sim time at which the current class expires
	exit     time.Duration // max predicted exit of the VMs placed (epoch.go)
	occ      uint32        // the occupancy the slot was written in
	state    hostState
}

// hostSlots is a slab of slots by host ID, grown on demand. A slot holds
// for the occupancy it was written in only, so an empty host reads as the
// zero slot however it went empty — through the exit hook, through the
// release of a copy window (cluster.Pool.Release), which calls none, or by
// its ID being removed and added again — and nothing outside the policy
// resets a slot. A copy window is capacity, not a VM: it keeps its host
// from being empty, but no slot, residual set or exit time counts it.
type hostSlots []hostSlot

// get returns the host's slot: the zero slot when the host is empty or has
// been empty since the slot was written.
func (s hostSlots) get(h *cluster.Host) hostSlot {
	if i := int(h.ID); i < len(s) && s[i].occ == h.Occupancy() && !h.Empty() {
		return s[i]
	}
	return hostSlot{}
}

// at returns the host's slot to write, growing the slab to cover the host
// and starting the slot afresh when it was written in an earlier occupancy.
func (s *hostSlots) at(h *cluster.Host) *hostSlot {
	if i := int(h.ID); i >= len(*s) {
		*s = append(*s, make([]hostSlot, i+1-len(*s))...)
	}
	sl := &(*s)[h.ID]
	if sl.occ != h.Occupancy() {
		*sl = hostSlot{occ: h.Occupancy()}
	}
	return sl
}

// setClass gives the host a class and the deadline by which a host of that
// class should have drained: now + 1.1x the class upper bound.
func (sl *hostSlot) setClass(class simtime.LifetimeClass, now time.Duration) {
	sl.class, sl.deadline = class, now+class.Deadline()
}
