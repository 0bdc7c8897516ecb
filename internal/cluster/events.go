package cluster

// HostEvent classifies a change to one host's scheduling-relevant state.
// Events are the pool's incremental-invalidation surface: score caches
// (internal/scheduler) subscribe and mark the affected host dirty instead of
// rescanning the pool, which is what makes steady-state placement sublinear
// in pool size.
type HostEvent uint8

// Host events. Place/Exit/Migrate are published by the corresponding Pool
// mutators; HostAdded/HostRemoved by the membership mutators (AddHosts,
// RemoveHost — fleet elasticity); HostInvalidated is the explicit escape
// hatch for state changes the pool cannot see itself — LAVA class
// promotions on reprediction deadlines, recycling-state transitions, and
// Unavailable flips by the defragmentation/maintenance engines and
// scenario injectors.
const (
	// HostPlaced: a VM was added to the host (Pool.Place).
	HostPlaced HostEvent = iota
	// HostExited: a VM was removed from the host (Pool.Exit).
	HostExited
	// HostMigratedOut: a VM left the host as the source of a migration.
	HostMigratedOut
	// HostMigratedIn: a VM arrived on the host as a migration destination.
	HostMigratedIn
	// HostInvalidated: out-of-band state relevant to scoring changed
	// (Pool.InvalidateHost).
	HostInvalidated
	// HostAdded: the host joined the pool (Pool.AddHosts). A membership
	// event: ID-indexed caches must rebind, not just dirty one host.
	HostAdded
	// HostRemoved: the host left the pool (Pool.RemoveHost). The *Host
	// passed to listeners is no longer a pool member.
	HostRemoved
)

// String renders the event name.
func (e HostEvent) String() string {
	switch e {
	case HostPlaced:
		return "placed"
	case HostExited:
		return "exited"
	case HostMigratedOut:
		return "migrated-out"
	case HostMigratedIn:
		return "migrated-in"
	case HostInvalidated:
		return "invalidated"
	case HostAdded:
		return "added"
	case HostRemoved:
		return "removed"
	default:
		return "event(?)"
	}
}

// HostListener observes host events. Listeners run synchronously inside the
// pool mutation, under the pool's single-writer contract: they must be fast,
// must not mutate the pool, and need no locking. Typical listeners only flip
// a per-host dirty bit.
type HostListener func(h *Host, ev HostEvent)

// Subscribe registers a listener for all subsequent host events and returns
// its cancel function. Subscribers are notified in subscription order.
//
// The contract a subscriber may rely on: every change that can alter a
// host's feasibility or any event-driven score — VM set changes, Unavailable
// flips, LAVA state-machine transitions — is announced either by the
// structural events (place/exit/migrate) or by an explicit InvalidateHost
// from the component performing the out-of-band mutation. Code that mutates
// host state outside the Pool mutators must call InvalidateHost afterwards;
// the scheduler's differential tests exist to catch violations.
//
// Cancelling removes the listener from the pool and keeps the order of the
// others; a second call is a no-op. A listener may cancel itself or another
// from inside its callback: the event being delivered still reaches every
// other live listener exactly once, and never the cancelled one again.
func (p *Pool) Subscribe(fn HostListener) (cancel func()) {
	s := &subscription{fn: fn}
	p.subs = append(p.subs, s)
	return func() {
		if s.fn == nil {
			return
		}
		s.fn = nil
		// Copy on write: a notify that is running keeps ranging over the
		// list it started with, where s now reads as cancelled.
		live := make([]*subscription, 0, len(p.subs)-1)
		for _, o := range p.subs {
			if o != s {
				live = append(live, o)
			}
		}
		p.subs = live
	}
}

// subscription is one registered listener; a nil fn marks it cancelled.
type subscription struct{ fn HostListener }

// InvalidateHost publishes a HostInvalidated event for the host, telling
// subscribers that scheduling-relevant state changed outside the pool's own
// mutators. Unknown IDs are ignored.
func (p *Pool) InvalidateHost(id HostID) {
	if h := p.byID[id]; h != nil {
		p.notify(h, HostInvalidated)
	}
}

// notify fans one event out to the live subscribers.
func (p *Pool) notify(h *Host, ev HostEvent) {
	for _, s := range p.subs {
		if s.fn != nil {
			s.fn(h, ev)
		}
	}
}
