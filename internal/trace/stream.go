package trace

import (
	"fmt"
	"slices"
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
type sliceStream struct{ recs []Record }

func (s *sliceStream) Next() (Record, bool) {
	if len(s.recs) == 0 {
		return Record{}, false
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, true
}

func (s *sliceStream) Err() error { return nil }

// Stream returns a cursor over the trace's records in canonical
// (arrival, ID) order. Records already sorted (the Generate/Read
// invariant) are streamed in place with no copy; otherwise a sorted copy
// is made so the receiver never observes non-canonical order.
func (t *Trace) Stream() Stream {
	for i := 1; i < len(t.Records); i++ {
		if !t.Records[i].follows(&t.Records[i-1]) {
			c := &Trace{Records: slices.Clone(t.Records)}
			c.Sort()
			return &sliceStream{recs: c.Records}
		}
	}
	return &sliceStream{recs: t.Records}
}

// --- event cursor --------------------------------------------------------

// exitKey is one pending exit, all the cursor holds per live VM: an exit
// event names its VM by ID alone (see Event), so no record is kept.
type exitKey struct {
	exit time.Duration
	id   cluster.VMID
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
// binary min-heap of 16-byte (exit, ID) keys, one per VM whose create has
// been emitted. Like Events(), it emits an exit with only Rec.ID set.
//
// The equivalence argument: the source yields creates in (arrival, ID)
// order, and any not-yet-seen record's exit is strictly after the next
// arrival (exit = arrival' + lifetime > arrival' >= next arrival, since
// lifetimes are positive), so the heap always contains every exit that
// could precede the next create. It refuses a record outside that argument
// (a non-positive lifetime, an exit past math.MaxInt64, an (arrival, ID)
// not after its predecessor's); a refusal or a source error ends it at
// once, exits still pending, after the create of the last good record.
type EventCursor struct {
	src  Stream
	keys []exitKey // min-heap by exitKey.before

	next    Record
	hasNext bool
	err     error
}

// NewEventCursor builds a cursor over the stream's derived events, reading
// the stream's first record.
func NewEventCursor(s Stream) *EventCursor {
	c := &EventCursor{src: s}
	c.pull(nil)
	return c
}

// Next returns the next derived event. ok is false at exhaustion, on a
// stream error or on a refused record; check Err.
func (c *EventCursor) Next() (Event, bool) {
	// An exit fires before the next create when its time is not after the
	// arrival — at equal times exits precede creates (EventExit < EventCreate).
	if c.err == nil && len(c.keys) > 0 && (!c.hasNext || c.keys[0].exit <= c.next.Arrival) {
		top := c.popExit()
		return Event{Time: top.exit, Kind: EventExit, Rec: Record{ID: top.id}}, true
	}
	if !c.hasNext {
		return Event{}, false
	}
	c.pushExit(exitKey{exit: c.next.Exit(), id: c.next.ID})
	ev := Event{Time: c.next.Arrival, Kind: EventCreate, Rec: c.next}
	c.pull(&ev.Rec)
	return ev, true
}

// pull reads the source's next record into c.next, refusing one the order
// argument does not cover; prev is the record of the last create, if any.
func (c *EventCursor) pull(prev *Record) {
	if c.next, c.hasNext = c.src.Next(); !c.hasNext {
		c.err = c.src.Err()
		return
	}
	r := &c.next
	if r.Lifetime <= 0 || r.Exit() < r.Arrival {
		c.err = fmt.Errorf("trace: vm %d has no exit time after its arrival (arrival %v + lifetime %v)", r.ID, r.Arrival, r.Lifetime)
	} else if prev != nil && !r.follows(prev) {
		c.err = fmt.Errorf("trace: vm %d at %v does not follow vm %d at %v in (arrival, ID) order", r.ID, r.Arrival, prev.ID, prev.Arrival)
	}
	c.hasNext = c.err == nil
}

// pushExit adds a key to the heap, sifting it up. A full heap doubles:
// append's growth steps shrink toward 1.25x on large slices, and a heap of
// a whole pool's live VMs would leave a trail of discarded arrays behind it.
func (c *EventCursor) pushExit(k exitKey) {
	if len(c.keys) == cap(c.keys) {
		c.keys = append(make([]exitKey, 0, max(2*cap(c.keys), 64)), c.keys...)
	}
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

// Err returns the first error the underlying stream hit or the refusal of
// a record, or nil. The Next call that returns the cursor's last event may
// already set it, so a consumer that stops reading early checks it too.
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
