package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/simtime"
)

// NILAS is Non-Invasive Lifetime-Aware Scheduling (§4.2): it computes
// ∆T = max(predicted_vm_exit_time − host_exit_time, 0), where the host exit
// time is the maximum of the *repredicted* remaining lifetimes of the VMs
// already on the host, quantizes ∆T into the temporal-cost buckets, and
// inserts that cost one level above the bin packing score. Within a bucket,
// hosts pack by the baseline's waste-minimization criteria — the
// "equivalence classes" of §4.2.
//
// The type is the paper's stacking spelled out: a scorer chain (the embedded
// CachedChain supplies Name, the engine switch, cache stats, decision
// capture and level pricing) plus the exit cache and the hooks that keep it.
type NILAS struct {
	CachedChain
	cache *ExitCache
	et    *epochTemporal // non-nil for the epoch-quantized variant (epoch.go)
	hosts hostSlots      // per-host state of the epoch level and of LAVA
}

// NewNILAS builds the NILAS policy over the given predictor. refresh is the
// host-score cache interval of Appendix G.3 (zero disables caching, i.e.
// hosts are re-scored on every request).
//
// On the incremental engine the packing levels are cached by VM shape; the
// temporal cost stays dynamic (it depends on the candidate VM's repredicted
// exit), so it is evaluated on every feasible host exactly as the exhaustive
// path does — including the exit-cache refreshes and model-call counts.
func NewNILAS(pred model.Predictor, refresh time.Duration) *NILAS {
	n := &NILAS{}
	n.init("nilas", pred, refresh, 0)
	return n
}

// init assembles the one chain shape every lifetime policy shares: the
// caller's levels above, then the temporal cost, then the bin-packing levels
// — concentrate within an equivalence class (best fit) before shaping the
// leftover (waste-min); concentration is what lets lifetime-aligned hosts
// drain as a unit. epoch == 0 gives the exact temporal cost, otherwise the
// epoch-quantized one (epoch.go). The temporal level is dynamic, except for
// an epoch-quantized level 0 (nilas-epoch): that one keys the buckets,
// static within an epoch under a context keyed by the VM's quantized
// remaining lifetime.
func (n *NILAS) init(name string, pred model.Predictor, refresh, epoch time.Duration, above ...Scorer) {
	n.cache = NewExitCache(pred, refresh)
	temporal := ScorerFunc{FuncName: "temporal-cost", F: n.temporalCost}
	if epoch != 0 {
		n.et = &epochTemporal{cache: n.cache, epoch: epoch, hosts: &n.hosts}
		temporal = ScorerFunc{FuncName: "temporal-epoch", F: n.et.score, blankAlike: true}
	}
	if epoch != 0 && len(above) == 0 {
		n.Epoch = epoch
		n.ClassOf = func(vm *cluster.VM, now time.Duration) int32 {
			return int32(simtime.TemporalCost(n.cache.Remaining(vm, now)))
		}
	} else {
		n.Dynamic = make([]bool, len(above)+1)
		n.Dynamic[len(above)] = true
	}
	n.Chain = Chain{ChainName: name, Scorers: append(append(above, temporal),
		AvoidEmptyScorer(), BestFitScorer(), WasteMinScorer())}
}

// temporalCost computes the quantized NILAS score for placing vm on h.
func (n *NILAS) temporalCost(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	vmExit := n.cache.PredictVMExit(vm, now)
	hostExit := n.cache.HostExit(h, now)
	deltaT := vmExit - hostExit
	if deltaT < 0 {
		deltaT = 0
	}
	return float64(simtime.TemporalCost(deltaT))
}

// Schedule implements Policy.
func (n *NILAS) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if n.ClassOf != nil {
		// Every variant with a context key classifies the VM up front on
		// both engines. The cached engine needs the reprediction for the
		// key; warming the memo here keeps the exhaustive engine's
		// model-call count identical even when a single feasible host lets
		// the chain skip scoring entirely. Exact NILAS has no key and must
		// not pre-warm: there the skipped scoring is a skipped model call.
		n.cache.Remaining(vm, now)
	}
	return n.CachedChain.Schedule(pool, vm, now)
}

// OnPlaced implements Policy: re-score the host (G.3 rule 1).
func (n *NILAS) OnPlaced(_ *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	n.cache.Invalidate(h.ID)
	if n.et != nil {
		n.et.onPlaced(h, vm, now)
	}
}

// OnExited implements Policy: re-score the host (G.3 rule 2) and release
// the VM's binding.
func (n *NILAS) OnExited(_ *cluster.Pool, h *cluster.Host, vm *cluster.VM, _ time.Duration) {
	n.cache.Invalidate(h.ID)
	n.cache.drop(vm)
}

// ModelCalls reports predictor invocations (Fig. 17 telemetry).
func (n *NILAS) ModelCalls() int64 { return n.cache.Predictions }
