package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
)

// Baseline scorers. These model the lifetime-unaware production scheduler
// the paper compares against: Borg's Waste-Minimization bin packing (§2.2)
// and the classic Best Fit used by Barbalho et al.

// AvoidEmptyScorer prefers non-empty hosts, so that empty hosts are opened
// only as a last resort — the precondition for any empty-host metric to be
// meaningful.
func AvoidEmptyScorer() Scorer {
	return ScorerFunc{FuncName: "avoid-empty", blankAlike: true, F: func(h *cluster.Host, _ *cluster.VM, _ time.Duration) float64 {
		if h.Empty() {
			return 1
		}
		return 0
	}}
}

// WasteMinScorer scores the *shape quality* of the free resources left
// behind after a hypothetical placement: the per-dimension imbalance of the
// remaining free vector. Borg's waste minimization optimizes for leaving
// free shapes that match anticipated workloads (§2.2); on a homogeneous
// pool, a balanced leftover shape is the shape most likely to fit future
// VMs.
func WasteMinScorer() Scorer {
	return ScorerFunc{FuncName: "waste-min", blankAlike: true, F: func(h *cluster.Host, vm *cluster.VM, _ time.Duration) float64 {
		free := h.Free().Sub(vm.Shape)
		return resources.Imbalance(free, h.Capacity)
	}}
}

// BestFitScorer prefers the host that ends up most utilized after the
// placement (classic best fit over the dominant resource dimension).
func BestFitScorer() Scorer {
	return ScorerFunc{FuncName: "best-fit", blankAlike: true, F: func(h *cluster.Host, vm *cluster.VM, _ time.Duration) float64 {
		used := h.Used().Add(vm.Shape)
		return -resources.DominantShare(used, h.Capacity)
	}}
}

// NewWasteMin builds the production-baseline policy: avoid empties, then
// minimize leftover-shape waste, then best fit as the final tie-break.
// Every level is a pure function of (host state, VM shape), so the whole
// chain rides the incremental score cache keyed by shape alone.
func NewWasteMin() Policy {
	return NewCachedChain(Chain{ChainName: "wastemin", Scorers: []Scorer{
		AvoidEmptyScorer(),
		WasteMinScorer(),
		BestFitScorer(),
	}}, nil, nil)
}

// NewBestFit builds the plain Best Fit policy (the substrate of Barbalho et
// al.'s scheduler), fully cached like NewWasteMin.
func NewBestFit() Policy {
	return NewCachedChain(Chain{ChainName: "bestfit", Scorers: []Scorer{
		AvoidEmptyScorer(),
		BestFitScorer(),
		WasteMinScorer(),
	}}, nil, nil)
}
