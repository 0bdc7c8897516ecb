package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/simtime"
)

// This file implements the epoch-quantized temporal-cost level. Epoch is a
// parameter of the one chain builder (NILAS.init): nonzero swaps this level
// in for the exact temporal cost, and the two constructors at the bottom are
// NewNILAS and NewLAVA with that parameter set.
//
// The motivation is scale: the exact temporal cost depends on the candidate
// VM's repredicted exit *and* the continuously moving clock, and it reads
// ExitCache.HostExit, which may repredict every VM on a host. The incremental
// engine must keep it Dynamic and call it on every host that reaches it —
// under NILAS, every feasible host of every placement, O(feasible hosts) per
// decision. At 250k–1M hosts that term dominates and per-decision latency
// grows linearly with the pool again, which is exactly what the score cache
// exists to prevent.
//
// The epoch variants trade bucket-boundary precision for cheap scores:
// virtual time is quantized into fixed epochs (1–2h, comparable to the
// coarser temporal-cost buckets), and within an epoch the temporal score is
// a pure function of (host exit estimate, VM remaining-lifetime bucket). The
// host estimate is a running max kept by the hooks and the VM's remaining
// lifetime is the memo Schedule pre-warms, so one score is O(1) and calls no
// model. The two variants use that differently:
//
//   - nilas-epoch, where the level is level 0, caches it: the cache context
//     is keyed by the VM's quantized remaining lifetime, the buckets by this
//     level, and a context whose buckets date from an earlier epoch is
//     rebuilt on its next Schedule (CachedChain.Epoch). Every level is
//     static; the steady-state sync cost is O(changed hosts), and what
//     remains per decision is the winning-bucket filter every cached policy
//     pays.
//   - lava-epoch, where the level sits below the class preference, keeps it
//     Dynamic: it is scored on the hosts of the winning class bucket that
//     reach it, about nine per decision on replay-scale, and the context
//     stays keyed by (shape, LAVA class) alone. Keying it by the remaining-
//     lifetime bucket too, to cache this level, would multiply the contexts
//     — and their memory and sync work — by about 2.6 for no fewer scores.
//
// Equivalence between engines is the usual structural argument: both run
// the same scorer over the same candidates, the host-exit estimates are
// maintained by the policy hooks (which fire identically on both engines),
// and the memoized reprediction is pre-warmed once per Schedule so model-
// call counts match — which is also why the level may carry the blank
// marker on a dynamic level: a blank host's score reads only that memo. The
// epoch variants are NOT placement-identical to exact NILAS/LAVA —
// quantization moves some decisions across bucket boundaries — they are
// separate, coarser policies with the same structure, each
// bit-reproducible and engine-identical in its own right.

// DefaultEpoch is the default temporal quantization step of the epoch
// policy variants: two hours, the same order as the mid-range temporal-cost
// bucket widths, so quantization noise stays within about one bucket.
const DefaultEpoch = 2 * time.Hour

// epochTemporal computes the epoch-quantized temporal cost. It maintains
// its own conservative host-exit estimate — the running max over the
// repredicted exits of the VMs placed on the host, reset when the host
// drains — instead of ExitCache's rescan, so scoring never repredicts
// hosted VMs and stays O(1) per host.
type epochTemporal struct {
	cache *ExitCache
	epoch time.Duration
	exits []time.Duration // dense by HostID: max predicted exit of placed VMs
}

func (e *epochTemporal) grow(id cluster.HostID) {
	for int(id) >= len(e.exits) {
		e.exits = append(e.exits, 0)
	}
}

// onPlaced folds the placed VM's predicted exit into the host estimate. The
// reprediction is memoized from the scheduling pass that chose the host, so
// this adds no model calls on either engine.
func (e *epochTemporal) onPlaced(h *cluster.Host, vm *cluster.VM, now time.Duration) {
	e.grow(h.ID)
	if exit := now + e.cache.Remaining(vm, now); exit > e.exits[h.ID] {
		e.exits[h.ID] = exit
	}
}

// onExited resets the estimate when the host drains. Partial exits keep the
// running max: it is an upper bound by construction, and recomputing the
// true max would repredict every remaining VM — the O(VMs) cost this level
// exists to avoid.
func (e *epochTemporal) onExited(h *cluster.Host) {
	if h.Empty() {
		e.grow(h.ID)
		e.exits[h.ID] = 0
	}
}

// score is the epoch-quantized temporal cost: both exit times are snapped
// onto the epoch grid before the NILAS ∆T bucketing. Within one epoch the
// result depends only on the host's exit estimate and the VM's quantized
// remaining lifetime, which is what lets nilas-epoch cache it as a static
// level 0 under a context keyed by that lifetime; CachedChain.Epoch rebuilds
// the context when now crosses an epoch boundary. An empty host exits
// "now" whatever its slot holds, as in ExitCache.HostExit: a host drained
// without the exit hook (by the release of a defrag copy-window
// reservation) scores like a never-used one.
func (e *epochTemporal) score(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	es := now - now%e.epoch // epoch start
	hx := es                // empty or already-drained hosts exit "now", floored to the grid
	if !h.Empty() && int(h.ID) < len(e.exits) && e.exits[h.ID] > es {
		hx = e.exits[h.ID]
	}
	qv := simtime.TemporalCost(e.cache.Remaining(vm, now))
	vmExit := es + simtime.TemporalCostBuckets[qv]
	deltaT := vmExit - hx
	if deltaT < 0 {
		deltaT = 0
	}
	return float64(simtime.TemporalCost(deltaT))
}

// NewNILASEpoch builds the epoch-quantized NILAS variant: NewNILAS's chain
// with epoch passed to the shared builder, so the temporal level is the
// static one above. Every level is static and the incremental engine serves
// whole decisions from cache; epoch is the quantization step (DefaultEpoch
// when zero).
func NewNILASEpoch(pred model.Predictor, refresh, epoch time.Duration) *NILAS {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	n := &NILAS{}
	n.init("nilas-epoch", pred, refresh, epoch)
	return n
}

// NewLAVAEpoch builds the epoch-quantized LAVA variant: NewLAVA's chain with
// the temporal tie-break on the epoch grid, below the class preference,
// which keeps the buckets. Like NewLAVA's temporal cost the level is
// dynamic, so the cache context is (shape, LAVA class) as in NewLAVA; unlike
// it, the level scores a host in O(1) without a model call and scores blank
// hosts alike, so decisions that open a host take the blank shortcut.
func NewLAVAEpoch(pred model.Predictor, refresh, epoch time.Duration) *LAVA {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	return newLAVA("lava-epoch", pred, refresh, epoch)
}
