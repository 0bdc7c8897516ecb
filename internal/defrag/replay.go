package defrag

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"lava/internal/cluster"
)

// PlannedVM is one VM in a recorded defragmentation plan.
type PlannedVM struct {
	ID        cluster.VMID
	Exit      time.Duration // ground-truth exit time
	Remaining time.Duration // predicted remaining lifetime at trigger time
}

// PlannedBatch is one host drain: the trigger time and the VMs to evacuate.
type PlannedBatch struct {
	Trigger time.Duration
	Host    cluster.HostID
	VMs     []PlannedVM
}

// ReplayResult counts the outcome of replaying a plan.
type ReplayResult struct {
	Planned   int
	Performed int
	Saved     int // exited before their migration could start
}

// ReplayPlan replays a recorded defragmentation plan through the
// slot-constrained migration queue, with the engine's default batch limit
// of 3 slots, exactly as §5.1 describes the LARS simulation: "all
// migrations are performed in a certain order (in our baseline, defined by
// the trace), but have to wait until a slot is available. This approach has
// the effect that some VMs exit while others are migrating. LARS modifies
// this order based on lifetime predictions."
//
// The plan (which hosts drain, when, with which VMs) is fixed; only the
// per-host evacuation order changes between strategies, so the comparison
// is feedback-free like the paper's.
func ReplayPlan(plan []PlannedBatch, strategy Strategy) ReplayResult {
	// Build the global queue. Hosts drained at the same trigger time share
	// the migration slots, so the ordering unit is the *round*: all VMs
	// with one trigger time, across its hosts. Within a round the strategy
	// decides the order; rounds themselves stay in trigger order.
	var queue []replayItem
	flush := func(vms []PlannedVM, trigger time.Duration) {
		order(vms, strategy)
		for _, vm := range vms {
			queue = append(queue, replayItem{vm: vm, trigger: trigger})
		}
	}
	var round []PlannedVM
	var roundTrigger time.Duration
	for i, b := range plan {
		if i > 0 && b.Trigger != roundTrigger {
			flush(round, roundTrigger)
			round = round[:0]
		}
		roundTrigger = b.Trigger
		round = append(round, b.VMs...)
	}
	if len(round) > 0 {
		flush(round, roundTrigger)
	}
	return replayQueue(queue, batchLimit)
}

// order sorts planned moves in place by the strategy: one drained host's
// VMs in the live engine, one round of drains in ReplayPlan. OrderTrace
// sorts by ID, which is creation order, so a replay under it does not
// inherit the order of the engine that recorded the plan.
func order(vms []PlannedVM, s Strategy) {
	switch s {
	case OrderTrace:
		slices.SortFunc(vms, func(a, b PlannedVM) int { return cmp.Compare(a.ID, b.ID) })
	case OrderLARS:
		// Longest predicted remaining lifetime first (Algorithm 1).
		sort.SliceStable(vms, func(i, j int) bool {
			if vms[i].Remaining != vms[j].Remaining {
				return vms[i].Remaining > vms[j].Remaining
			}
			return vms[i].ID < vms[j].ID
		})
	case OrderShuffled:
		// Deterministic hash order: lifetime-agnostic, like a production
		// migration list.
		sort.SliceStable(vms, func(i, j int) bool {
			return idHash(vms[i].ID) < idHash(vms[j].ID)
		})
	}
}

// idHash is a deterministic 64-bit mix for shuffled ordering.
func idHash(id cluster.VMID) uint64 {
	h := uint64(id) * 0x5851F42D4C957F2D
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

type replayItem struct {
	vm      PlannedVM
	trigger time.Duration
}

// replayQueue runs the slot-constrained migration queue.
func replayQueue(queue []replayItem, slots int) ReplayResult {
	// slotFree holds the next-free time of each migration slot.
	slotFree := make([]time.Duration, slots)
	res := ReplayResult{Planned: len(queue)}
	for _, it := range queue {
		// Earliest slot.
		best := 0
		for s := 1; s < slots; s++ {
			if slotFree[s] < slotFree[best] {
				best = s
			}
		}
		start := slotFree[best]
		if it.trigger > start {
			start = it.trigger
		}
		if it.vm.Exit <= start {
			res.Saved++ // exited naturally while waiting (Table 2)
			continue
		}
		res.Performed++
		slotFree[best] = start + migrationTime
	}
	return res
}
