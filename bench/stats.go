package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Latencies are kept as raw samples and sorted once: runner.LatencyHist's
// geometric buckets quantise p50/p95 into ~25% steps, too coarse for a 10%
// bound.

// percentile returns the q-quantile (0..1) of an ascending slice, linearly
// interpolated between the two closest ranks. An empty slice reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts a copy of v and returns its middle.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the default "exclusive" method), which is what the driver uses to
// judge a metric's run-to-run spread. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// worsening is how much worse cand is than base, as a share of base, in the
// metric's own direction: positive means worse.
func worsening(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMS converts nanosecond samples to ascending milliseconds, sortedUS
// to ascending microseconds.
func sortedMS(ns []int64) []float64 { return sortedIn(ns, 1e6) }
func sortedUS(ns []int64) []float64 { return sortedIn(ns, 1e3) }

func sortedIn(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / unit
	}
	sort.Float64s(out)
	return out
}

// memWatch measures a timed section's memory behaviour from outside:
// peak HeapInuse (sampled at 100 Hz and wherever the caller asks), bytes
// allocated, and the collector's cycle count and pause total. The heap
// grows to its peak just before each collector cycle ends and a 200 MB/s
// allocator moves it by 20 MB between two 10 Hz samples, so the sampler
// reads runtime/metrics, which unlike ReadMemStats stops nothing, and can
// afford to look often.
type memWatch struct {
	before runtime.MemStats
	peak   atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

// startMemWatch collects first, so every section starts from a settled
// heap, then begins sampling.
func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&w.before)
	w.peak.Store(w.before.HeapInuse)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.sample()
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// sample folds the current HeapInuse into the peak; callers invoke it at
// phase ends, where the sampler could miss a short-lived high-water mark.
func (w *memWatch) sample() {
	// MemStats.HeapInuse is these two classes together: the bytes of in-use
	// spans that hold objects, and those that do not yet.
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	inuse := s[0].Value.Uint64() + s[1].Value.Uint64()
	for {
		old := w.peak.Load()
		if inuse <= old || w.peak.CompareAndSwap(old, inuse) {
			return
		}
	}
}

type memDelta struct {
	peakHeapMB float64
	allocBytes float64
	gcCycles   float64
	gcPauseMS  float64
}

// finish stops the sampler and returns the section's deltas.
func (w *memWatch) finish() memDelta {
	close(w.stop)
	<-w.done
	w.sample()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		peakHeapMB: float64(w.peak.Load()) / (1 << 20),
		allocBytes: float64(after.TotalAlloc - w.before.TotalAlloc),
		gcCycles:   float64(after.NumGC - w.before.NumGC),
		gcPauseMS:  float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6,
	}
}

// A run is made of rounds: independent experiments of the same shape, each
// on its own trace (roundSeed), each set up from nothing. One round's
// numbers depend on its trace (a 96-host pool's events per second differ by
// a quarter between seeds) and on the state the process and the host were in
// while it ran, so a run reports a statistic over its rounds.

// roundSeed derives round k's trace seed from the run's seed, so that runs
// with neighbouring seeds share no trace (splitmix64's finaliser).
func roundSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// roundValues is what one round contributes to the end-to-end metrics.
type roundValues struct {
	setupS float64
	// rates is events per second over each stretch of the round that was
	// timed on its own: the one sim.Run pass of a replay round, the
	// segments of a serving round's saturated phase.
	rates        []float64
	onTimeShare  float64 // negative: this round did not measure it
	placements   int
	failedPlace  int
	emptyFrac    float64
	peakHeapMB   float64
	allocKBPerEv float64
}

type roundStats struct{ rounds []roundValues }

func (rs *roundStats) add(v roundValues) { rs.rounds = append(rs.rounds, v) }

// report sets every end-to-end metric from the rounds. What a clock or the
// collector measured is a median: set-up time, heap, allocation and on-time
// share over rounds, events per second over every separately timed stretch
// of every round. What the traces alone determine (placements refused,
// empty hosts) is pooled over all rounds: there is no outlier to reject, and
// the mean of n pools moves less than their median.
func (rs *roundStats) report(out *outcome) {
	var (
		setups, rates, onTime, heap, alloc []float64
		placements, failedPlace            int
		emptySum                           float64
	)
	for _, r := range rs.rounds {
		setups = append(setups, r.setupS)
		rates = append(rates, r.rates...)
		if r.onTimeShare >= 0 {
			onTime = append(onTime, r.onTimeShare)
		}
		heap = append(heap, r.peakHeapMB)
		alloc = append(alloc, r.allocKBPerEv)
		placements += r.placements
		failedPlace += r.failedPlace
		emptySum += r.emptyFrac
	}
	n := len(rs.rounds)
	out.setN("setup_s", median(setups), n)
	out.setN("events_per_s", median(rates), len(rates))
	out.setN("ontime_share", median(onTime), len(onTime))
	out.setN("placed_share", float64(placements)/float64(placements+failedPlace), n)
	out.setN("empty_host_frac", emptySum/float64(n), n)
	out.setN("peak_heap_mb", median(heap), n)
	out.setN("alloc_kb_per_event", median(alloc), n)
	out.note("rounds: setup_s %s", fmtRow(setups))
	out.note("rounds: events_per_s %s", fmtRow(rates))
}

func fmtRow(v []float64) string {
	s := ""
	for _, x := range v {
		s += fmt.Sprintf(" %.5g", x)
	}
	return strings.TrimPrefix(s, " ")
}
