package trace

import (
	"time"

	"lava/internal/cluster"
)

// Stream yields trace records incrementally in canonical (arrival, ID)
// order — the iterator/cursor contract that lets generation, file replay
// and the simulator run multi-million-VM traces without an O(trace)
// resident slice. A materialized *Trace adapts via Stream(); synthetic
// workloads via workload.Stream.
type Stream interface {
	// Next returns the next record. ok is false when the stream is
	// exhausted or failed; the caller must then check Err.
	Next() (Record, bool)

	// Err returns the first error the stream hit, or nil on clean
	// exhaustion. Valid once Next has returned ok == false.
	Err() error
}

// sliceStream adapts a record slice already in canonical order.
type sliceStream struct {
	recs []Record
	i    int
}

func (s *sliceStream) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

func (s *sliceStream) Err() error { return nil }

// Stream returns a cursor over the trace's records in canonical
// (arrival, ID) order. Records already sorted (the Generate/Read
// invariant) are streamed in place with no copy; otherwise a sorted copy
// is made so the receiver never observes non-canonical order.
func (t *Trace) Stream() Stream {
	recs := t.Records
	for i := 1; i < len(recs); i++ {
		a, b := &recs[i-1], &recs[i]
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.ID >= b.ID) {
			sorted := append([]Record(nil), recs...)
			c := &Trace{Records: sorted}
			c.Sort()
			recs = c.Records
			break
		}
	}
	return &sliceStream{recs: recs}
}

// --- event cursor --------------------------------------------------------

// exitKey is one pending exit: what the heap compares, plus where the
// record it belongs to sits in the cursor's slab.
type exitKey struct {
	exit time.Duration
	id   cluster.VMID
	slot int32
}

// before orders pending exits by (exit time, VM ID) — the Events() order
// among exits.
func (a exitKey) before(b exitKey) bool {
	return a.exit < b.exit || (a.exit == b.exit && a.id < b.id)
}

// EventCursor merges a record stream into the interleaved CREATE/EXIT
// event sequence, in exactly the order (*Trace).Events() produces: by
// time, exits before creates at ties, then VM ID. Resident memory is
// O(live VMs) instead of O(2 × trace) for the materialized event slice: a
// binary min-heap of 24-byte exit keys for the VMs whose creates have been
// emitted, over a slab holding each such VM's record once. Sifting moves
// keys, never records; a slot vacated by an exit is reused by a later create.
//
// The equivalence argument: the source yields creates in (arrival, ID)
// order, and any not-yet-seen record's exit is strictly after the next
// arrival (exit = arrival' + lifetime > arrival' >= next arrival, since
// lifetimes are positive), so the heap always contains every exit that
// could precede the next create.
type EventCursor struct {
	src  Stream
	keys []exitKey // min-heap by exitKey.before
	slab []Record  // keys[i].slot indexes it
	free []int32   // vacated slab slots

	next    Record
	hasNext bool
	primed  bool
	err     error
}

// NewEventCursor builds a cursor over the stream's derived events.
func NewEventCursor(s Stream) *EventCursor {
	return &EventCursor{src: s}
}

// Next returns the next derived event. ok is false at exhaustion or on a
// stream error; check Err.
func (c *EventCursor) Next() (Event, bool) {
	if c.err != nil {
		return Event{}, false
	}
	if !c.primed {
		c.next, c.hasNext = c.src.Next()
		c.primed = true
	}
	// An exit fires before the next create when its time is not after the
	// arrival — at equal times exits precede creates (EventExit < EventCreate).
	if len(c.keys) > 0 && (!c.hasNext || c.keys[0].exit <= c.next.Arrival) {
		top := c.popExit()
		c.free = append(c.free, top.slot)
		return Event{Time: top.exit, Kind: EventExit, Rec: c.slab[top.slot]}, true
	}
	if !c.hasNext {
		c.err = c.src.Err()
		return Event{}, false
	}
	slot := int32(len(c.slab))
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
		c.slab[slot] = c.next
	} else {
		c.slab = append(c.slab, c.next)
	}
	c.pushExit(exitKey{exit: c.next.Exit(), id: c.next.ID, slot: slot})
	ev := Event{Time: c.next.Arrival, Kind: EventCreate, Rec: c.next}
	c.next, c.hasNext = c.src.Next()
	return ev, true
}

// pushExit adds a key to the heap, sifting it up.
func (c *EventCursor) pushExit(k exitKey) {
	c.keys = append(c.keys, k)
	i := len(c.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(c.keys[parent]) {
			break
		}
		c.keys[i] = c.keys[parent]
		i = parent
	}
	c.keys[i] = k
}

// popExit removes and returns the heap's minimum, sifting the last key down
// from the root.
func (c *EventCursor) popExit() exitKey {
	top := c.keys[0]
	n := len(c.keys) - 1
	k := c.keys[n]
	c.keys = c.keys[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && c.keys[r].before(c.keys[child]) {
			child = r
		}
		if !c.keys[child].before(k) {
			break
		}
		c.keys[i] = c.keys[child]
		i = child
	}
	if n > 0 {
		c.keys[i] = k
	}
	return top
}

// Live reports the number of VMs created but not yet exited — the
// cursor's resident state.
func (c *EventCursor) Live() int { return len(c.keys) }

// Err returns the first error the underlying stream hit, or nil.
func (c *EventCursor) Err() error { return c.err }

// Collect drains a stream into a materialized record slice. It is the
// bridge from streaming producers to consumers that genuinely need the
// whole trace (model training).
func Collect(s Stream) ([]Record, error) {
	var recs []Record
	for {
		r, ok := s.Next()
		if !ok {
			return recs, s.Err()
		}
		recs = append(recs, r)
	}
}
