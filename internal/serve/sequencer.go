package serve

import (
	"sync"
	"sync/atomic"
)

// sequencer is the one ordering stage of the service: a Server runs one over
// its client stream, a Fleet one as its global front door. Every mutating
// entry takes a turn — seq > 0 the turn of that sequence number, which
// starts once every lower one has left; seq 0 an unsequenced turn at once —
// and holds the sequencer's lock for it. The turn-holder enqueues its
// requests (a fleet: every step of the op's plan, in plan order) before it
// leaves, so each event loop receives its sequenced requests already in
// order and applies them in arrival order; no loop buffers, numbers or
// reorders anything.
//
// Holding the lock across those channel sends is what makes queue order
// sequence order. A send can block on a full queue, but every send selects
// on its loop's stop channel, and Close stops the loops before it takes
// this lock.
type sequencer struct {
	// draining is set when a drain starts: new mutating work is refused
	// before it takes the lock.
	draining atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64              // the sequence number whose turn is next
	parked  map[uint64]struct{} // sequence numbers waiting for their turn
	closed  bool
	flushed bool // a drain flushed the sequencer: nothing may enter anymore
}

func newSequencer() *sequencer {
	q := &sequencer{next: 1, parked: make(map[uint64]struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enter takes the turn of seq and returns holding the lock (see
// enterLocked for the refusals); on nil the caller must leave.
func (q *sequencer) enter(seq uint64) error {
	if q.draining.Load() {
		return ErrDraining
	}
	q.mu.Lock()
	if err := q.enterLocked(seq); err != nil {
		q.mu.Unlock()
		return err
	}
	return nil
}

// leave ends the turn of seq. A sequenced turn moves the cursor on even when
// its request failed, so later sequence numbers never park behind it.
func (q *sequencer) leave(seq uint64) {
	if seq > 0 {
		q.next++
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// enterLocked parks (releasing the lock while parked) until seq is next; seq
// 0 never parks. It answers errDupSeq when seq is already parked, errStaleSeq
// when seq is behind the cursor, ErrClosed once closed and ErrDraining after
// a flush. A seq behind the cursor while draining is answered ErrDraining
// too: the flush jumped the cursor past it, so it was never processed and
// "already processed" would lie.
func (q *sequencer) enterLocked(seq uint64) error {
	if seq > q.next && !q.closed && !q.flushed {
		if _, dup := q.parked[seq]; dup {
			return errDupSeq
		}
		q.parked[seq] = struct{}{}
		for seq > q.next && !q.closed {
			q.cond.Wait()
		}
		delete(q.parked, seq)
	}
	switch {
	case q.closed:
		return ErrClosed
	case q.flushed:
		return ErrDraining
	case seq != 0 && seq < q.next:
		if q.draining.Load() {
			return ErrDraining
		}
		return errStaleSeq
	}
	return nil
}

// flush starts a drain: new work is refused, and the parked requests are
// released one gap at a time in ascending sequence order — the cursor jumps
// to the lowest parked number, its turn runs, repeat — until none is left.
// Every request admitted before flush returns has been enqueued at its loop,
// so a drain request enqueued after it is behind all of them. Idempotent.
func (q *sequencer) flush() {
	q.draining.Store(true)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.parked) > 0 && !q.closed {
		low := uint64(0)
		for s := range q.parked {
			if low == 0 || s < low {
				low = s
			}
		}
		q.next = max(q.next, low)
		q.cond.Broadcast()
		q.cond.Wait()
	}
	q.flushed = true
}

// close answers every parked and later entry with ErrClosed. Callers stop
// their event loops first: a turn-holder blocked on a full queue holds the
// lock, and only a closed loop lets it go.
func (q *sequencer) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pending reports the number of parked requests.
func (q *sequencer) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parked)
}
