package serve

import (
	"sync"
	"sync/atomic"
)

// sequencer is the one ordering stage of the service: a Server runs one over
// its client stream, a Fleet one as its global front door. Every mutating
// entry takes a turn — seq > 0 the turn of that sequence number, which
// starts once every lower one has left; seq 0 an unsequenced turn at once —
// and holds the sequencer's lock for it. A Server applies the request to its
// machine during the turn, on the caller's goroutine, so turn order is apply
// order and nothing buffers, queues or reorders anything. A Fleet's front
// door plans the op during its turn and draws one ticket per step from the
// step's cell: a cell numbers its turns by tickets, not by client sequence
// numbers, so each cell applies its steps in front-door order while the
// cells work in parallel.
//
// Reads and the drain's Finish take the lock without a turn (lock); Close
// takes it too, so it returns once the turn-holder has left.
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

	tickets atomic.Uint64 // the last ticket drawn (a fleet cell's turns)
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

// leave ends the turn of seq, or with seq 0 an unsequenced turn or a lock. A
// sequenced turn moves the cursor on even when its request failed, so later
// sequence numbers never park behind it.
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
// Every request admitted before flush returns has taken and left its turn,
// so a Finish under the lock after it comes behind all of them. Idempotent.
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

// ticket draws the next sequence number of a stream whose numbers the
// caller hands out: a fleet draws a cell's during the op's front-door turn,
// so the cell's turns follow front-door order. Every ticket drawn must enter
// and leave, or the cell's later turns park behind it forever.
func (q *sequencer) ticket() uint64 { return q.tickets.Add(1) }

// lock takes the sequencer's lock without a turn, for the reads and the
// drain's Finish: they must not interleave with an apply but take no
// sequence number, and work on after a drain. It answers ErrClosed once
// closed; on nil the caller must leave(0).
func (q *sequencer) lock() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// close answers every parked and later entry with ErrClosed. It takes the
// lock, so it returns once the current turn-holder has left.
func (q *sequencer) close() {
	q.mu.Lock()
	q.closeLocked()
	q.mu.Unlock()
}

// closeLocked is close for a caller holding the lock: a turn-holder whose
// apply panicked closes its sequencer before it lets the lock go, so no later
// turn touches a machine left mid-update.
func (q *sequencer) closeLocked() {
	q.closed = true
	q.cond.Broadcast()
}

// pending reports the number of parked requests.
func (q *sequencer) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parked)
}
