package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lava/internal/slo"
	"lava/internal/trace"
)

// doFunc sends one event as request number seq and reports how it went:
// nil, an admission rejection (slo.IsReject), or a failure.
type doFunc func(ctx context.Context, ev trace.Event, seq uint64) error

// phase is one stretch of the event stream sent under one load model.
type phase struct {
	name     string
	evs      []trace.Event
	firstSeq uint64
	// rate > 0 is an open loop: request i is due at start + i/rate whether
	// or not earlier ones have completed. rate 0 is a closed loop: each
	// worker sends its next request when its previous one returns.
	rate float64
}

// phaseStats is the outcome of one phase. Latencies are raw, ascending
// samples over the requests answered 2xx.
type phaseStats struct {
	name                       string
	firstSeq                   uint64
	sent, ok, rejected, failed int
	late                       int // answered 2xx, but past latencyLimit from the due time
	wall                       time.Duration
	latMS                      []float64 // from the due time (closed loop: from send)
	genLateMS                  []float64 // how late the generator woke for a send it slept for, open loop only
	// Per request in stream order, for joining with server-side clocks and
	// for statistics over segments of the phase. rttNS and latNS are zero
	// where the request was not answered 2xx; endNS counts from the phase's
	// start.
	rttNS, latNS, endNS []int64
}

// segments is how many equal stretches a phase is cut into for its headline
// statistics. Each is the median over the segments of the per-segment
// value, so that one stall (a collector cycle, a neighbour on the host)
// moves one segment and not the reported number; a slowdown that is there
// all the time moves every segment.
const segments = 7

// segment returns the bounds of segment k of n requests.
func segment(k, n int) (lo, hi int) { return k * n / segments, (k + 1) * n / segments }

// latencyMS is the median over segments of each segment's q-quantile of
// latency, over the requests answered 2xx.
func (p *phaseStats) latencyMS(q float64) float64 {
	per := make([]float64, 0, segments)
	for k := 0; k < segments; k++ {
		lo, hi := segment(k, len(p.latNS))
		var ok []int64
		for _, d := range p.latNS[lo:hi] {
			if d > 0 {
				ok = append(ok, d)
			}
		}
		per = append(per, percentile(sortedMS(ok), q))
	}
	return median(per)
}

// onTimeShare is the median over segments of the share of requests sent
// that were answered 2xx within latencyLimit.
func (p *phaseStats) onTimeShare() float64 {
	per := make([]float64, 0, segments)
	for k := 0; k < segments; k++ {
		lo, hi := segment(k, len(p.latNS))
		onTime := 0
		for _, d := range p.latNS[lo:hi] {
			if d > 0 && time.Duration(d) <= latencyLimit {
				onTime++
			}
		}
		per = append(per, float64(onTime)/float64(hi-lo))
	}
	return median(per)
}

// perSecond is the median over segments of requests completed per second.
func (p *phaseStats) perSecond() float64 { return median(p.segmentRates()) }

// segmentRates is requests completed per second, segment by segment.
func (p *phaseStats) segmentRates() []float64 {
	per := make([]float64, 0, segments)
	var prev int64
	for k := 0; k < segments; k++ {
		lo, hi := segment(k, len(p.endNS))
		var last int64
		for _, e := range p.endNS[lo:hi] {
			last = max(last, e)
		}
		per = append(per, float64(hi-lo)/(float64(last-prev)/1e9))
		prev = last
	}
	return per
}

// backlogGrowthMS is the median latency of the phase's last tenth minus
// that of its first tenth: near zero when the server keeps up with an open
// loop, growing with the phase's length when a backlog builds.
func (p *phaseStats) backlogGrowthMS() float64 {
	tenth := len(p.latNS) / 10
	if tenth == 0 {
		return 0
	}
	head := sortedMS(p.latNS[:tenth])
	tail := sortedMS(p.latNS[len(p.latNS)-tenth:])
	return percentile(tail, 0.5) - percentile(head, 0.5)
}

// sleepUntil blocks until t. time.Sleep rounds sub-millisecond waits up to
// about a millisecond when the process is otherwise idle (the runtime
// parks in epoll with millisecond granularity), and a thread's default
// 50 µs timer slack delays any sleep by about as much again, a wait that
// timing from the due time would charge to the server. nanosleep on a
// thread with 1 ns slack wakes ~15 µs late and, unlike spinning, leaves the
// core to the server. The slack is a per-thread setting and goroutines
// move between threads, so it is set before every sleep. It reports whether
// it slept at all: a worker that reaches a request already past due is late
// because the server was slow, not because the generator was.
func sleepUntil(t time.Time) (slept bool) {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: failing only sleeps longer
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by the remainder
	return true
}

// runPhase sends the phase's events over `workers` goroutines (one
// connection each, for the HTTP doer). Workers claim events in stream
// order, so sequence numbers leave in order up to the worker count. The
// first failure cancels the phase: a lost sequence number would park every
// later request until the drain.
func runPhase(ctx context.Context, ph phase, workers int, do doFunc) *phaseStats {
	n := len(ph.evs)
	const (
		stUnsent = iota // the phase was cancelled first; counts as failed
		stOK
		stRejected
		stFailed
	)
	var (
		status = make([]uint8, n)
		latNS  = make([]int64, n)
		rttNS  = make([]int64, n)
		lateNS = make([]int64, n)
		endNS  = make([]int64, n)
		next   atomic.Int64
		wg     sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				var due time.Time
				slept := false
				if ph.rate > 0 {
					due = start.Add(time.Duration(float64(i) / ph.rate * float64(time.Second)))
					slept = sleepUntil(due)
				}
				send := time.Now()
				if ph.rate <= 0 {
					due = send
				}
				err := do(ctx, ph.evs[i], ph.firstSeq+uint64(i))
				end := time.Now()
				latNS[i], rttNS[i], lateNS[i] = int64(end.Sub(due)), int64(end.Sub(send)), -1
				if slept {
					lateNS[i] = max(0, int64(send.Sub(due)))
				}
				endNS[i] = int64(end.Sub(start))
				switch {
				case err == nil:
					status[i] = stOK
				case slo.IsReject(err):
					status[i] = stRejected
				default:
					status[i] = stFailed
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	st := &phaseStats{name: ph.name, firstSeq: ph.firstSeq, sent: n, wall: time.Since(start), rttNS: rttNS, latNS: latNS, endNS: endNS}
	for i := 0; i < n; i++ {
		switch status[i] {
		case stRejected:
			st.rejected++
			rttNS[i], latNS[i] = 0, 0
		case stUnsent, stFailed:
			st.failed++
			rttNS[i], latNS[i] = 0, 0
			continue
		case stOK:
			st.ok++
			if time.Duration(latNS[i]) > latencyLimit {
				st.late++
			}
			st.latMS = append(st.latMS, float64(latNS[i])/1e6)
		}
		if lateNS[i] >= 0 {
			st.genLateMS = append(st.genLateMS, float64(lateNS[i])/1e6)
		}
	}
	sort.Float64s(st.latMS)
	sort.Float64s(st.genLateMS)
	return st
}
