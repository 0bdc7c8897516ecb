package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/simtime"
)

// Hooks for the external tests of this package (package scheduler_test),
// which drive policies through internal/sim and so cannot live in package
// scheduler itself.

// HostView is a copy of what a NILAS or LAVA policy keeps for a host in its
// current occupancy: the zero view when the host is empty.
type HostView struct {
	State    string // LAVA's state: "empty", "open" or "recycling"
	Class    simtime.LifetimeClass
	Deadline time.Duration
	Exit     time.Duration // the epoch level's running max of exits
}

// HostOf returns p's view of the host; p is a NILAS or LAVA policy.
func HostOf(p Policy, h *cluster.Host) HostView {
	n, ok := p.(*NILAS)
	if !ok {
		n = &p.(*LAVA).NILAS
	}
	sl := n.hosts.get(h)
	name := [...]string{stateEmpty: "empty", stateOpen: "open", stateRecycling: "recycling"}[sl.state]
	return HostView{State: name, Class: sl.class, Deadline: sl.deadline, Exit: sl.exit}
}

// Residuals counts the VMs of the host's residual set: those that carry
// cluster.VM.Mark.
var Residuals = residuals

// markedScorers returns the chain levels that carry the blank marker.
func (c *CachedChain) markedScorers() []Scorer {
	var out []Scorer
	for _, s := range c.Scorers {
		if f, ok := s.(ScorerFunc); ok && f.blankAlike {
			out = append(out, s)
		}
	}
	return out
}

// MarkedScorers returns the levels of p's chain that claim to score every
// blank host alike.
func MarkedScorers(p Policy) []Scorer {
	return p.(interface{ markedScorers() []Scorer }).markedScorers()
}

// boundVMs reports the VMs the policy's exit cache holds a binding for.
func (n *NILAS) boundVMs() int { return n.cache.bound }

// BoundVMs returns the number of VMs p's exit cache has bound.
func BoundVMs(p Policy) int {
	return p.(interface{ boundVMs() int }).boundVMs()
}

// exitCache returns the policy's exit cache.
func (n *NILAS) exitCache() *ExitCache { return n.cache }

// ExitCacheOf returns p's exit cache.
func ExitCacheOf(p Policy) *ExitCache {
	return p.(interface{ exitCache() *ExitCache }).exitCache()
}
