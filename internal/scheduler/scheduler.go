package scheduler

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

// ErrNoCapacity is returned when no feasible host can take the VM.
var ErrNoCapacity = errors.New("scheduler: no feasible host")

// Scorer is one dimension of the lexicographic scoring chain. Lower scores
// are preferred. Scores must be deterministic functions of the host, VM and
// time.
type Scorer interface {
	Name() string
	Score(h *cluster.Host, vm *cluster.VM, now time.Duration) float64
}

// Policy is a complete scheduling algorithm: host selection plus the event
// hooks some policies (LAVA, cached NILAS) need to maintain state.
type Policy interface {
	Name() string

	// Schedule picks a host for the VM or returns ErrNoCapacity. It must
	// not mutate the pool; the caller performs the placement and then
	// invokes OnPlaced.
	Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error)

	// OnPlaced is called after vm was placed on h.
	OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration)

	// OnExited is called after vm exited from h.
	OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration)

	// OnTick is called periodically (e.g. each simulated minute) so
	// policies can run deadline checks.
	OnTick(pool *cluster.Pool, now time.Duration)
}

// Names lists the policy names New accepts.
func Names() []string { return []string{"wastemin", "bestfit", "la-binary", "nilas", "lava"} }

// New builds the named policy: the one name-to-constructor switch behind the
// facade, the CLIs and the experiment drivers. refresh is the host-score
// cache refresh interval of NILAS and LAVA (0 disables caching). The
// lifetime-unaware baselines ignore pred; the others refuse a nil one.
func New(name string, pred model.Predictor, refresh time.Duration) (Policy, error) {
	switch name {
	case "wastemin":
		return NewWasteMin(), nil
	case "bestfit":
		return NewBestFit(), nil
	case "la-binary", "nilas", "lava":
		if pred == nil {
			return nil, fmt.Errorf("scheduler: policy %q needs a predictor", name)
		}
		switch name {
		case "la-binary":
			return NewLABinary(pred), nil
		case "nilas":
			return NewNILAS(pred, refresh), nil
		}
		return NewLAVA(pred, refresh), nil
	}
	return nil, fmt.Errorf("scheduler: unknown policy %q (want %s)", name, strings.Join(Names(), "|"))
}

// scoreEpsilon defines score equality for tie-breaking purposes: hosts
// within this distance of the best score survive to the next chain level.
const scoreEpsilon = 1e-9

// sift is the epsilon rule of one chain level, one candidate at a time in
// scan order: n candidates have survived so far and best is the running best
// score. It returns the slot the candidate scoring sc is written to, the new
// survivor count and the new running best: a candidate that starts the level
// or beats the running best by more than epsilon becomes the only survivor,
// one within epsilon joins them, and any other is dropped — its slot n lies
// past the survivors, and at or before the candidate's own position, so the
// caller's unconditional write is harmless. The rule compares against the
// running best, not the final minimum, so it depends on the scan order; both
// engines scan in host-ID order and both call this function, which is what
// makes their decisions identical by construction.
func sift(n int, sc, best float64) (slot, kept int, newBest float64) {
	switch {
	case n == 0 || sc < best-scoreEpsilon:
		return 0, 1, sc
	case sc <= best+scoreEpsilon:
		return n, n + 1, best
	}
	return n, n, best
}

// Chain is a lexicographic scoring policy: feasible hosts are filtered
// level by level, and the final tie-break is the lowest host ID, keeping
// runs deterministic.
//
// A Chain reuses its candidate buffer across Schedule calls, so the
// steady-state hot path allocates nothing; consequently a Chain value must
// not be shared by concurrent simulations (each run constructs its own
// policy, as internal/runner does).
type Chain struct {
	ChainName string
	Scorers   []Scorer

	cand []*cluster.Host // reused candidate buffer
	tr   *capState       // decision capture; nil = tracing disarmed
}

// Name implements Policy.
func (c *Chain) Name() string { return c.ChainName }

// Schedule implements Policy.
func (c *Chain) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	candidates := pool.AppendFeasible(c.cand[:0], vm.Shape)
	c.cand = candidates
	if c.tr != nil {
		c.tr.begin(len(candidates))
	}
	if len(candidates) == 0 {
		return nil, ErrNoCapacity
	}
	candidates = c.applyChain(candidates, vm, now)
	if c.tr != nil && !c.tr.scored {
		c.tr.captureSingle(c, candidates[0], vm, now)
	}
	// Deterministic tie-break: lowest host ID. AppendFeasible returns hosts
	// in ID order and the filtering preserves it, so the first candidate
	// wins.
	return candidates[0], nil
}

// applyChain runs the lexicographic epsilon-filter over candidates (which
// must be in host-ID order), scoring every candidate on every level it
// reaches. It filters the slice in place and returns the survivors; levels
// stop evaluating once a single candidate remains. This is the exhaustive
// engine; CachedChain.filter is the same loop over cached columns.
func (c *Chain) applyChain(candidates []*cluster.Host, vm *cluster.VM, now time.Duration) []*cluster.Host {
	for li := 0; li < len(c.Scorers) && len(candidates) > 1; li++ {
		obs := c.tr // capture level-0 scores as they are computed anyway
		if li != 0 {
			obs = nil
		}
		n, best := 0, 0.0
		for _, h := range candidates {
			sc := c.Scorers[li].Score(h, vm, now)
			if obs != nil {
				obs.observe(h.ID, sc)
			}
			var at int
			at, n, best = sift(n, sc, best)
			candidates[at] = h
		}
		candidates = candidates[:n]
		c.tr.narrowed(li, n)
	}
	return candidates
}

// OnPlaced implements Policy (no-op for plain chains).
func (c *Chain) OnPlaced(*cluster.Pool, *cluster.Host, *cluster.VM, time.Duration) {}

// OnExited implements Policy (no-op for plain chains).
func (c *Chain) OnExited(*cluster.Pool, *cluster.Host, *cluster.VM, time.Duration) {}

// OnTick implements Policy (no-op for plain chains).
func (c *Chain) OnTick(*cluster.Pool, time.Duration) {}

// ScorerFunc adapts a function to the Scorer interface.
type ScorerFunc struct {
	FuncName string
	F        func(h *cluster.Host, vm *cluster.VM, now time.Duration) float64
}

// Name implements Scorer.
func (s ScorerFunc) Name() string { return s.FuncName }

// Score implements Scorer.
func (s ScorerFunc) Score(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	return s.F(h, vm, now)
}
