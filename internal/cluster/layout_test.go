package cluster

import (
	"math"
	"math/rand"
	"testing"

	"lava/internal/resources"
)

// TestPoolHostLookup holds Pool.Host to a map reference through random
// membership changes: a dense pool, removals of middle and top hosts,
// AddHosts after removals, and IDs that name no host (negative, out of
// range, removed), which must read nil. InvalidateHost of such an ID must
// publish nothing.
func TestPoolHostLookup(t *testing.T) {
	capacity := resources.Cores(8, 32768, 0)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPool("lookup", rng.Intn(12), capacity)
		ref := map[HostID]*Host{}
		for _, h := range p.Hosts() {
			ref[h.ID] = h
		}
		var events []HostEvent
		p.Subscribe(func(_ *Host, ev HostEvent) { events = append(events, ev) })

		check := func(step string) {
			t.Helper()
			top := HostID(len(p.Hosts()) + 3)
			if hs := p.Hosts(); len(hs) > 0 {
				top = hs[len(hs)-1].ID + 3
			}
			for id := HostID(-3); id <= top; id++ {
				if got := p.Host(id); got != ref[id] {
					t.Fatalf("seed %d, %s: Host(%d) = %v, want %v", seed, step, id, got, ref[id])
				}
			}
			for _, id := range []HostID{math.MinInt32, math.MaxInt32} {
				if got := p.Host(id); got != nil {
					t.Fatalf("seed %d, %s: Host(%d) = %v, want nil", seed, step, id, got)
				}
			}
			if len(ref) != p.NumHosts() {
				t.Fatalf("seed %d, %s: %d hosts, reference has %d", seed, step, p.NumHosts(), len(ref))
			}
			events = events[:0]
			p.InvalidateHost(top)
			p.InvalidateHost(-1)
			if len(events) != 0 {
				t.Fatalf("seed %d, %s: InvalidateHost of an unknown ID published %v", seed, step, events)
			}
		}

		check("dense")
		for step := 0; step < 30; step++ {
			hs := p.Hosts()
			switch op := rng.Intn(4); {
			case op == 0 && len(hs) > 2: // a middle host
				id := hs[1+rng.Intn(len(hs)-2)].ID
				if err := p.RemoveHost(id); err != nil {
					t.Fatal(err)
				}
				delete(ref, id)
				check("remove middle")
			case op == 1 && len(hs) > 0: // the top host
				id := hs[len(hs)-1].ID
				if err := p.RemoveHost(id); err != nil {
					t.Fatal(err)
				}
				delete(ref, id)
				check("remove top")
				if err := p.RemoveHost(id); err == nil {
					t.Fatalf("seed %d: removing host %d twice succeeded", seed, id)
				}
			default:
				for _, h := range p.AddHosts(1+rng.Intn(3), capacity) {
					if ref[h.ID] != nil {
						t.Fatalf("seed %d: AddHosts reused ID %d", seed, h.ID)
					}
					ref[h.ID] = h
				}
				check("add")
			}
		}
	}
}
