package sim

import (
	"sync"
	"time"

	"lava/internal/trace"
)

// Run reads its trace on a goroutine of its own, the feed's producer, and
// applies the events on the caller's. The producer owns the record source
// and the trace.EventCursor that merges it into events; it fills batches of
// feedBatchLen events in the cursor's order and hands them over through a
// channel, and the caller applies each batch in order and hands it back.
// Nothing else crosses: the Machine, its policy, injectors, tracer and
// pool stay on the caller's goroutine, so the events, their order and
// every result are those of one goroutine reading and applying in turn.
//
// A batch spreads one channel handoff over many events. Of a run's three
// batches, the producer fills one while the caller applies another, and
// the third takes up the jitter between the two; the idle list keeps the
// batches of four runs, as many as a runner's workers on a small box.
const (
	feedBatchLen = 128 // events in a batch
	feedBatches  = 3   // batches one run passes between its goroutines
	feedIdleMax  = 4 * feedBatches
)

// idleBatches keeps the batches of finished runs for the next run, at most
// feedIdleMax of them, so back-to-back runs allocate no batch. A batch is
// cleared before it waits here: it pins no record's strings. Unlike a
// sync.Pool, the list is not emptied by a collection between two runs;
// like one, which batch a run gets changes nothing it computes.
var idleBatches struct {
	sync.Mutex
	bufs [][]trace.Event
}

// feed is one run's producer and the channels it shares with the caller.
// The caller ends every run through join, which stops the producer, waits
// for it to return and reports how it ended.
type feed struct {
	// Each channel has room for all feedBatches batches, so no send blocks.
	full chan []trace.Event // filled batches in event order; the producer closes it as it returns
	free chan []trace.Event // applied batches, back to the producer
	done chan struct{}      // closed by join: stop producing
	bufs [feedBatches][]trace.Event

	// Written by the producer before it closes full, read after join.
	err      error // the cursor's error, nil on a clean end
	panicked bool
	pval     any // what the producer panicked with

	joined bool
}

// startFeed starts the producer over src, or over tr's records when src is
// nil. It reads events up to end, the measurement horizon: the first event
// past it ends the feed, as it ends the replay.
func startFeed(src trace.Stream, tr *trace.Trace, end time.Duration) *feed {
	f := &feed{
		full: make(chan []trace.Event, feedBatches),
		free: make(chan []trace.Event, feedBatches),
		done: make(chan struct{}),
	}
	idleBatches.Lock()
	for i := range f.bufs {
		if n := len(idleBatches.bufs); n > 0 {
			f.bufs[i] = idleBatches.bufs[n-1]
			idleBatches.bufs = idleBatches.bufs[:n-1]
		} else {
			f.bufs[i] = make([]trace.Event, 0, feedBatchLen)
		}
	}
	idleBatches.Unlock()
	for _, b := range f.bufs {
		f.free <- b
	}
	go func() {
		defer close(f.full)
		defer func() {
			if r := recover(); r != nil {
				f.panicked, f.pval = true, r
			}
		}()
		if src == nil {
			src = tr.Stream()
		}
		f.produce(trace.NewEventCursor(src), end)
	}()
	return f
}

// produce fills free batches from the cursor until it ends, fails, or
// passes end, or until join stops it. It waits only for a free batch.
func (f *feed) produce(cur *trace.EventCursor, end time.Duration) {
	for {
		var b []trace.Event
		select {
		case b = <-f.free:
		case <-f.done:
			return
		}
		for b = b[:0]; len(b) < cap(b); {
			ev, ok := cur.Next()
			if !ok || ev.Time > end {
				f.err = cur.Err()
				if len(b) > 0 {
					f.full <- b
				}
				return
			}
			b = append(b, ev)
		}
		f.full <- b
	}
}

// join stops the producer and waits for it to return, then keeps the
// run's batches for the next run. It raises a producer's panic again, on
// the caller's goroutine, and returns the cursor's error. A second call
// does nothing: Run defers one, so a return or a panic on the caller's side
// joins the producer as well.
func (f *feed) join() error {
	if f.joined {
		return nil
	}
	f.joined = true
	close(f.done)
	for range f.full {
	}
	idleBatches.Lock()
	for _, b := range f.bufs {
		if len(idleBatches.bufs) < feedIdleMax {
			clear(b[:cap(b)])
			idleBatches.bufs = append(idleBatches.bufs, b[:0])
		}
	}
	idleBatches.Unlock()
	if f.panicked {
		panic(f.pval)
	}
	return f.err
}
