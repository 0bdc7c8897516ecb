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

// Chain is a lexicographic scoring policy: feasible hosts are filtered
// level by level, and the final tie-break is the lowest host ID, keeping
// runs deterministic.
//
// A Chain reuses internal candidate/scratch buffers across Schedule calls,
// so the steady-state hot path allocates nothing; consequently a Chain
// value must not be shared by concurrent simulations (each run constructs
// its own policy, as internal/runner does).
type Chain struct {
	ChainName string
	Scorers   []Scorer

	cand    []*cluster.Host // reused candidate buffer
	scratch []*cluster.Host // reused per-level filter buffer
	tr      *capState       // decision capture; nil = tracing disarmed
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
	candidates = c.applyChain(candidates, 0, c, vm, now)
	if c.tr != nil && !c.tr.scored {
		c.tr.captureSingle(c, candidates[0], vm, now)
	}
	// Deterministic tie-break: lowest host ID. AppendFeasible returns hosts
	// in ID order and the filtering preserves it, so the first candidate
	// wins.
	return candidates[0], nil
}

// levelScorer abstracts where a chain level's scores come from: the
// exhaustive engine computes them (Chain.levelScore), the incremental engine
// reads cached values for static levels (CachedChain.levelScore). Keeping
// one filtering core under both sources is what makes the two engines
// byte-identical by construction — they run the same comparisons on the
// same candidates in the same order.
type levelScorer interface {
	levelScore(level int, h *cluster.Host, vm *cluster.VM, now time.Duration) float64
}

// levelScore implements levelScorer by evaluating the scorer directly.
func (c *Chain) levelScore(level int, h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	return c.Scorers[level].Score(h, vm, now)
}

// applyChain runs the lexicographic epsilon-filter over candidates (which
// must be in host-ID order), starting at the given level and drawing scores
// from src. It reuses the chain's scratch buffer, mutates the candidates
// slice in place, and returns the survivors; levels stop evaluating once a
// single candidate remains.
func (c *Chain) applyChain(candidates []*cluster.Host, from int, src levelScorer, vm *cluster.VM, now time.Duration) []*cluster.Host {
	scratch := c.scratch
	for li := from; li < len(c.Scorers); li++ {
		if len(candidates) == 1 {
			break
		}
		obs := c.tr // capture level-0 scores as they are computed anyway
		if li != 0 {
			obs = nil
		}
		best := 0.0
		scratch = scratch[:0]
		for i, h := range candidates {
			sc := src.levelScore(li, h, vm, now)
			if obs != nil {
				obs.observe(h.ID, sc)
			}
			switch {
			case i == 0 || sc < best-scoreEpsilon:
				best = sc
				scratch = append(scratch[:0], h)
			case sc <= best+scoreEpsilon:
				scratch = append(scratch, h)
			}
		}
		candidates = append(candidates[:0], scratch...)
		if c.tr != nil && c.tr.Level < 0 && len(candidates) == 1 {
			c.tr.Level = li
		}
	}
	c.scratch = scratch
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
