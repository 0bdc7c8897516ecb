package cluster

import (
	"slices"
	"testing"
	"time"

	"lava/internal/resources"
)

func eventVM(id VMID, cores int64) *VM {
	return &VM{ID: id, Shape: resources.Cores(cores, cores*1024, 0), TrueLifetime: time.Hour}
}

// TestPoolEventStream pins the event surface contract: one event per
// structural mutation, two for a migration (source out, destination in),
// and an explicit invalidation on demand — all carrying the right host.
func TestPoolEventStream(t *testing.T) {
	p := NewPool("ev", 4, resources.Cores(8, 8*1024, 0))
	type rec struct {
		id HostID
		ev HostEvent
	}
	var got []rec
	cancel := p.Subscribe(func(h *Host, ev HostEvent) {
		got = append(got, rec{h.ID, ev})
	})

	if err := p.Place(eventVM(1, 2), p.Host(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Migrate(1, p.Host(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Exit(1); err != nil {
		t.Fatal(err)
	}
	p.InvalidateHost(2)
	p.InvalidateHost(99) // unknown: silently ignored

	want := []rec{
		{1, HostPlaced},
		{1, HostMigratedOut},
		{3, HostMigratedIn},
		{3, HostExited},
		{2, HostInvalidated},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = {host %d, %v}, want {host %d, %v}", i, got[i].id, got[i].ev, want[i].id, want[i].ev)
		}
	}

	// After cancel, no further events are delivered.
	cancel()
	n := len(got)
	if err := p.Place(eventVM(2, 2), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("cancelled subscriber still notified: %v", got[n:])
	}
}

// TestPoolEventFailedMutations verifies that rejected mutations publish no
// events: a cache must never be dirtied by an operation that did not happen
// (it would be harmless, but the contract is one event per real change).
func TestPoolEventFailedMutations(t *testing.T) {
	p := NewPool("ev", 2, resources.Cores(4, 4*1024, 0))
	count := 0
	p.Subscribe(func(*Host, HostEvent) { count++ })

	if err := p.Place(eventVM(1, 8), p.Host(0)); err == nil {
		t.Fatal("oversized place succeeded")
	}
	if _, _, err := p.Exit(42); err == nil {
		t.Fatal("exit of unknown VM succeeded")
	}
	if count != 0 {
		t.Fatalf("failed mutations published %d events", count)
	}

	if err := p.Place(eventVM(1, 4), p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d after one real placement, want 1", count)
	}
	// Migration to a full destination rolls back and must stay silent.
	if err := p.Place(eventVM(2, 4), p.Host(1)); err != nil {
		t.Fatal(err)
	}
	count = 0
	if _, err := p.Migrate(1, p.Host(1)); err == nil {
		t.Fatal("migration into a full host succeeded")
	}
	if count != 0 {
		t.Fatalf("failed migration published %d events", count)
	}
}

// TestCloneDropsSubscribers: a cloned pool (what-if packing) must not feed
// events back into the original's subscribers.
func TestCloneDropsSubscribers(t *testing.T) {
	p := NewPool("ev", 2, resources.Cores(4, 4*1024, 0))
	count := 0
	p.Subscribe(func(*Host, HostEvent) { count++ })
	c := p.Clone()
	if err := c.Place(eventVM(9, 2), c.Host(0)); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("clone mutation notified the original's subscriber %d times", count)
	}
}

// TestSubscribeCancelReleasesSlot: a score cache cancels and resubscribes on
// every membership event, so a cancelled listener must leave the list, not a
// dead slot that every later place and exit walks past. The listener below
// rebinds the way scheduler.CachedChain does: cancel from inside the
// notification, subscribe again afterwards.
func TestSubscribeCancelReleasesSlot(t *testing.T) {
	p := NewPool("ev", 1, resources.Cores(4, 4*1024, 0))
	var cancel func()
	calls, rebind := 0, false
	listen := func(_ *Host, ev HostEvent) {
		calls++
		if ev == HostAdded {
			cancel()
			rebind = true
		}
	}
	cancel = p.Subscribe(listen)
	for i := 0; i < 1000; i++ {
		p.AddHosts(1, resources.Cores(4, 4*1024, 0))
		if !rebind {
			t.Fatalf("add %d: listener not notified", i)
		}
		cancel() // idempotent: already cancelled from inside notify
		cancel, rebind = p.Subscribe(listen), false
		if len(p.subs) != 1 {
			t.Fatalf("after %d rebinds the pool holds %d subscriber slots, want 1", i+1, len(p.subs))
		}
	}
	if calls != 1000 {
		t.Fatalf("listener called %d times over 1000 membership events", calls)
	}
}

// TestCancelDuringNotify: a listener that cancels — itself, or a neighbour on
// either side — while an event is being delivered must not make the pool
// skip or repeat anyone else, and the survivors keep subscription order.
func TestCancelDuringNotify(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		p := NewPool("ev", 2, resources.Cores(4, 4*1024, 0))
		var order []int
		var cancels [3]func()
		for i := range cancels {
			i := i
			cancels[i] = p.Subscribe(func(*Host, HostEvent) {
				order = append(order, i)
				if i == 1 {
					cancels[victim]()
				}
			})
		}
		p.InvalidateHost(0)
		want := []int{0, 1, 2}
		if victim == 2 {
			want = []int{0, 1} // cancelled before its turn: never called again
		}
		if !slices.Equal(order, want) {
			t.Errorf("victim %d: event delivered to %v, want %v", victim, order, want)
		}
		order = nil
		p.InvalidateHost(1)
		want = nil
		for i := 0; i < 3; i++ {
			if i != victim {
				want = append(want, i)
			}
		}
		if !slices.Equal(order, want) {
			t.Errorf("victim %d: next event delivered to %v, want %v", victim, order, want)
		}
	}
}
