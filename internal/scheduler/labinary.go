package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

// LACutoff is the short/long classification threshold of the LA-Binary
// baseline: two hours, as in Barbalho et al. (§5.3).
const LACutoff = 2 * time.Hour

// LABinary is a faithful reimplementation of the best algorithm of Barbalho
// et al. (§2.4, §5.3): a one-shot binary lifetime prediction made at VM
// creation and treated as fixed. Hosts are classed by the longest remaining
// time of any VM *based on initial predictions*; VMs preferentially land on
// hosts of their own class, with Best Fit inside a class; otherwise any
// suitable host; otherwise an empty host.
//
// Because predictions are never updated, an under-predicted VM can pin a
// "short" host forever — the failure mode repredictions fix (§1).
type LABinary struct {
	CachedChain
	pred model.Predictor

	// ModelCalls counts predictor invocations (one per VM at creation).
	ModelCalls int64
}

// NewLABinary builds the LA-Binary policy over the given predictor. The
// predictor is consulted exactly once per VM (at schedule time); NILAS and
// LAVA runs use the same model for apples-to-apples comparisons (§5.3).
//
// LA-Binary is the score cache's DirtyAll case: hostLong decays with the
// clock (a host's pinned predictions silently cross the cutoff as time
// passes), so its class score is genuinely time-varying and no host event
// marks the change. The chain is therefore declared TimeVarying, which is
// equivalent to DirtyAll before every Schedule — the engine skips cache
// maintenance and scores exhaustively.
func NewLABinary(pred model.Predictor) *LABinary {
	la := &LABinary{pred: pred}
	la.CachedChain = CachedChain{Chain: Chain{ChainName: "la-binary", Scorers: []Scorer{
		ScorerFunc{FuncName: "la-class-match", F: la.classScore},
		BestFitScorer(),
		WasteMinScorer(),
	}}, TimeVarying: true}
	return la
}

// initialPrediction returns the VM's one-shot prediction, making it on
// first use.
func (la *LABinary) initialPrediction(vm *cluster.VM) time.Duration {
	if vm.InitialPrediction == 0 {
		la.ModelCalls++
		vm.InitialPrediction = la.pred.PredictRemaining(vm, 0)
	}
	return vm.InitialPrediction
}

// vmLong classifies the VM by its initial prediction.
func (la *LABinary) vmLong(vm *cluster.VM) bool {
	return la.initialPrediction(vm) > LACutoff
}

// hostLong reports the host's lifetime class: long if any VM's *initial*
// prediction says it still has more than the cutoff remaining. No
// repredictions: a VM that outlived its initial prediction contributes
// nothing, so the host quietly degrades to "short" even while the VM runs —
// the misprediction-accumulation problem.
func (la *LABinary) hostLong(h *cluster.Host, now time.Duration) bool {
	for _, vm := range h.VMs() {
		exit := vm.Created + la.initialPrediction(vm)
		if exit-now > LACutoff {
			return true
		}
	}
	return false
}

// classScore is the level-1 preference: same class (0) > other non-empty
// host (1) > empty host (2).
func (la *LABinary) classScore(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	if h.Empty() {
		return 2
	}
	if la.vmLong(vm) == la.hostLong(h, now) {
		return 0
	}
	return 1
}

// OnPlaced implements Policy: pin the one-shot prediction.
func (la *LABinary) OnPlaced(_ *cluster.Pool, _ *cluster.Host, vm *cluster.VM, _ time.Duration) {
	la.initialPrediction(vm)
}
