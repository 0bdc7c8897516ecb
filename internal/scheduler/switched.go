package scheduler

import (
	"time"

	"lava/internal/cluster"
)

// Switched swaps from one policy to another at a fixed simulation time,
// modelling a production rollout (§5.2): the pool's history before the
// switch was produced by the old policy, and the new policy inherits that
// residual state. Only the active arm observes events (OnPlaced, OnExited,
// OnTick go to whichever policy owns the clock), so the post policy starts
// cold at the switch, as a rollout does: a post-switch LAVA starts from a
// zero host slab of its own, meets the pre-switch hosts as occupied hosts
// in the empty state and opens each with the class of the first VM it
// places there. Every fig16 / table1 / fig7
// number depends on this; TestSwitchedOnlyActiveArmObservesHooks pins it.
type Switched struct {
	Pre, Post Policy
	At        time.Duration

	last Policy // arm that made the most recent Schedule decision
}

// NewSwitched builds a rollout policy that activates post at the switch
// time.
func NewSwitched(pre, post Policy, at time.Duration) *Switched {
	return &Switched{Pre: pre, Post: post, At: at}
}

func (s *Switched) active(now time.Duration) Policy {
	if now >= s.At {
		return s.Post
	}
	return s.Pre
}

// SetEngine flips both arms onto the given scoring engine. Each arm's score
// cache subscribes to the pool lazily at its own first Schedule, so the
// post-switch policy starts from an all-dirty rebuild and inherits the
// pre-switch residual state exactly as the exhaustive path would.
func (s *Switched) SetEngine(e Engine) {
	SetEngine(s.Pre, e)
	SetEngine(s.Post, e)
}

func (s *Switched) engineOf() Engine { return EngineOf(s.Pre) }

// Name implements Policy.
func (s *Switched) Name() string { return s.Pre.Name() + "->" + s.Post.Name() }

// Schedule implements Policy.
func (s *Switched) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	p := s.active(now)
	s.last = p
	return p.Schedule(pool, vm, now)
}

// EnableTrace implements Traceable: arm both arms so captures stay
// available across the switch.
func (s *Switched) EnableTrace(k int) {
	EnableTrace(s.Pre, k)
	EnableTrace(s.Post, k)
}

// LastCapture implements Traceable: the capture of whichever arm made the
// most recent Schedule decision.
func (s *Switched) LastCapture() *Capture {
	if s.last == nil {
		return nil
	}
	return CaptureOf(s.last)
}

// AppendLevelScores implements the counterfactual pricing hook through the
// currently active arm; arms that cannot price arbitrary pairs leave dst
// unchanged.
func (s *Switched) AppendLevelScores(dst []float64, h *cluster.Host, vm *cluster.VM, now time.Duration) []float64 {
	dst, _ = LevelScores(s.active(now), dst, h, vm, now)
	return dst
}

// OnPlaced implements Policy.
func (s *Switched) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	s.active(now).OnPlaced(pool, h, vm, now)
}

// OnExited implements Policy.
func (s *Switched) OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	s.active(now).OnExited(pool, h, vm, now)
}

// OnTick implements Policy.
func (s *Switched) OnTick(pool *cluster.Pool, now time.Duration) {
	s.active(now).OnTick(pool, now)
}
