package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/trace"
	"lava/internal/workload"
)

// The decorators in this file are how a traced run sees inside the program
// without touching it: each wraps one layer's public interface
// (scheduler.Policy, model.Predictor, http.Handler, http.RoundTripper),
// keeps counts and time sums for every call, and records full spans for
// every 64th request.

// spanEvery is the span sampling stride: counters cover every request,
// spans every spanEvery-th.
const spanEvery = 64

func sampled(req uint64) bool { return req > 0 && req%spanEvery == 0 }

// span is one timed interval at a layer boundary. Spans of one request
// share Req (its sequence number); Parent names the span of the same
// request that caused this one. A layer's self time is its span minus the
// part its children cover.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Req     uint64 `json:"req"`
}

// spanRecorder keeps sampled spans in memory until the run ends.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) add(name, parent string, req uint64, start, end time.Time) {
	s := span{Name: name, Parent: parent, Req: req, StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as one JSON file and returns how many there were.
func (r *spanRecorder) write(dir, workload string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	n := len(r.spans)
	r.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return n, os.WriteFile(filepath.Join(dir, workload+".spans.json"), data, 0o644)
}

// seqIndex resolves a VM to the sequence numbers of its two requests.
// Policies only see the VM, so this is how a span inside the single-writer
// loop learns which request it belongs to. VM IDs are dense from zero
// (workload.PoolSpec.FirstVMID is never set here), so slices do.
type seqIndex struct {
	place, exit []uint64
}

// newSeqIndex numbers the events from 1 in stream order.
func newSeqIndex(evs []trace.Event, vms int) *seqIndex {
	ix := &seqIndex{place: make([]uint64, vms), exit: make([]uint64, vms)}
	for i, ev := range evs {
		if ev.Kind == trace.EventCreate {
			ix.place[ev.Rec.ID] = uint64(i + 1)
		} else {
			ix.exit[ev.Rec.ID] = uint64(i + 1)
		}
	}
	return ix
}

// cellClock accumulates what one single-writer loop (one sim.Machine: a
// replay, a server, or one fleet cell) spends in its policy and in the
// model under it. Only that loop's goroutine touches it, so it needs no
// synchronisation; readers wait for the loop to finish.
type cellClock struct {
	rec  *spanRecorder // nil: counters only
	seqs *seqIndex
	// Names of the spans enclosing this loop's policy calls: the machine
	// call on a replay, the HTTP handler on a server.
	createRoot, exitRoot string

	schedNS       []int64 // every Schedule call
	schedSum      time.Duration
	hooksSum      time.Duration // OnPlaced + OnExited + OnTick
	modelInSched  time.Duration // outer-predictor time nested in Schedule
	noCapacity    int64
	policyBySeqNS []int64 // policy time per request; nil on replays

	// The request and span the loop is inside right now, for the predictor
	// decorator's spans and its Schedule/hook attribution.
	curReq    uint64
	curParent string
	inSched   bool
}

func (c *cellClock) enter(req uint64, parent string, sched bool) {
	c.curReq, c.curParent, c.inSched = req, parent, sched
}

func (c *cellClock) leave(name, root string, start time.Time) time.Duration {
	end := time.Now()
	d := end.Sub(start)
	if c.policyBySeqNS != nil && c.curReq > 0 {
		c.policyBySeqNS[c.curReq] += int64(d)
	}
	if c.rec != nil && sampled(c.curReq) {
		c.rec.add(name, root, c.curReq, start, end)
	}
	c.curReq, c.curParent, c.inSched = 0, "", false
	return d
}

// tracedPolicy times every scheduler.Policy call. It forwards Name and
// ModelCalls so results stay byte-identical to an undecorated run.
type tracedPolicy struct {
	inner scheduler.Policy
	c     *cellClock
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) ModelCalls() int64 {
	if mc, ok := p.inner.(interface{ ModelCalls() int64 }); ok {
		return mc.ModelCalls()
	}
	return 0
}

func (p *tracedPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	start := time.Now()
	p.c.enter(p.c.seqs.place[vm.ID], "scheduler.schedule", true)
	h, err := p.inner.Schedule(pool, vm, now)
	d := p.c.leave("scheduler.schedule", p.c.createRoot, start)
	p.c.schedSum += d
	p.c.schedNS = append(p.c.schedNS, int64(d))
	if errors.Is(err, scheduler.ErrNoCapacity) {
		p.c.noCapacity++
	}
	return h, err
}

func (p *tracedPolicy) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	start := time.Now()
	p.c.enter(p.c.seqs.place[vm.ID], "scheduler.on_placed", false)
	p.inner.OnPlaced(pool, h, vm, now)
	p.c.hooksSum += p.c.leave("scheduler.on_placed", p.c.createRoot, start)
}

func (p *tracedPolicy) OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	start := time.Now()
	p.c.enter(p.c.seqs.exit[vm.ID], "scheduler.on_exited", false)
	p.inner.OnExited(pool, h, vm, now)
	p.c.hooksSum += p.c.leave("scheduler.on_exited", p.c.exitRoot, start)
}

func (p *tracedPolicy) OnTick(pool *cluster.Pool, now time.Duration) {
	start := time.Now()
	p.inner.OnTick(pool, now)
	p.c.hooksSum += time.Since(start)
}

// policySums pools the cellClocks of one or more loops: the arms and passes
// of a replay, the cells of a fleet.
type policySums struct {
	schedNS                    []int64
	sched, hooks, modelInSched time.Duration
	noCapacity                 int64
}

func (p *policySums) add(c *cellClock) {
	p.schedNS = append(p.schedNS, c.schedNS...)
	p.sched += c.schedSum
	p.hooks += c.hooksSum
	p.modelInSched += c.modelInSched
	p.noCapacity += c.noCapacity
}

// report writes the scheduler layer's metrics; wall and events are those
// of the traced section the clocks ran over.
func (p *policySums) report(out *outcome, wall time.Duration, events int) {
	sched := sortedUS(p.schedNS)
	out.set("scheduler.schedule_calls", float64(len(sched)))
	out.setN("scheduler.schedule_us_p50", percentile(sched, 0.50), len(sched))
	out.setN("scheduler.schedule_us_p95", percentile(sched, 0.95), len(sched))
	out.setN("scheduler.schedule_us_max", percentile(sched, 1), len(sched))
	out.set("scheduler.self_share", float64(p.sched-p.modelInSched)/float64(wall))
	out.set("scheduler.hooks_us_per_event", us(p.hooks)/float64(events))
	out.set("scheduler.nocapacity_share", float64(p.noCapacity)/float64(len(sched)))
}

// predClock is what a timedPredictor counted. Predictors are shared across
// fleet cells (one memo, one model), so it is concurrency-safe.
type predClock struct {
	calls atomic.Int64
	sumNS atomic.Int64

	mu       sync.Mutex
	sampleNS []int64 // every predSampleEvery-th call, for percentiles
}

// report writes the model layer's metrics from the innermost predictor
// clock.
func (k *predClock) report(out *outcome, wall time.Duration) {
	pred := sortedUS(k.sampleNS)
	out.set("model.calls", float64(k.calls.Load()))
	out.setN("model.predict_us_p50", percentile(pred, 0.50), len(pred))
	out.setN("model.predict_us_p95", percentile(pred, 0.95), len(pred))
	out.set("model.busy_share", float64(k.sumNS.Load())/float64(wall))
}

// predSampleEvery thins the per-call durations kept for percentiles: a
// replay makes millions of predictions.
const predSampleEvery = 8

// timedPredictor times every PredictRemaining call. With a cellClock it is
// the per-loop outer decorator (above the memo when there is one): it also
// attributes its time to the enclosing Schedule and records spans.
type timedPredictor struct {
	inner model.Predictor
	clk   *predClock
	c     *cellClock // nil: shared innermost decorator, counters only
}

func (p *timedPredictor) Name() string { return p.inner.Name() }

func (p *timedPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	start := time.Now()
	rem := p.inner.PredictRemaining(vm, uptime)
	end := time.Now()
	d := end.Sub(start)
	n := p.clk.calls.Add(1)
	p.clk.sumNS.Add(int64(d))
	if n%predSampleEvery == 0 {
		p.clk.mu.Lock()
		p.clk.sampleNS = append(p.clk.sampleNS, int64(d))
		p.clk.mu.Unlock()
	}
	if c := p.c; c != nil {
		if c.inSched {
			c.modelInSched += d
		}
		if c.rec != nil && sampled(c.curReq) {
			c.rec.add("model.predict", c.curParent, c.curReq, start, end)
		}
	}
	return rem
}

// seqHeader carries a request's sequence number to the handler middleware,
// which cannot see inside the body it forwards.
const seqHeader = "X-Bench-Seq"

type seqKey struct{}

// seqTransport stamps the sequence number found in the request context
// onto the outgoing request; serve.Client offers no header hook.
type seqTransport struct{ base http.RoundTripper }

func (t seqTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if seq, ok := req.Context().Value(seqKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(seqHeader, strconv.FormatUint(seq, 10))
	}
	return t.base.RoundTrip(req)
}

func withSeq(ctx context.Context, seq uint64) context.Context {
	return context.WithValue(ctx, seqKey{}, seq)
}

// httpClock is what the handler middleware counted.
type httpClock struct {
	rec         *spanRecorder
	handlerNS   []int64 // handler time per request, by sequence number
	policyBySeq []int64 // the loops' policy time per request (shared with the cellClocks)
	waitNS      []int64 // handler minus policy: decode, queue, reorder park, encode
	requests    atomic.Int64
	reqBytes    atomic.Int64
	respBytes   atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrap times the program's handler from outside. Requests without a
// sequence header (/stats, /drain) pass through uncounted.
func (hc *httpClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, _ := strconv.ParseUint(r.Header.Get(seqHeader), 10, 64)
		if seq == 0 || seq >= uint64(len(hc.handlerNS)) {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		d := int64(end.Sub(start))
		hc.handlerNS[seq] = d
		hc.waitNS[seq] = d - hc.policyBySeq[seq]
		hc.requests.Add(1)
		hc.reqBytes.Add(r.ContentLength)
		hc.respBytes.Add(cw.n)
		if sampled(seq) {
			hc.rec.add("serve.http.handler", "bench.client.request", seq, start, end)
		}
	})
}

// --- isolated layer probes ----------------------------------------------

// cursorProbe is one pass of trace.EventCursor over a stream, stopping at
// the horizon exactly as sim.Run does.
type cursorProbe struct {
	events  int
	creates int
	liveMax int
	wall    time.Duration
}

func (p cursorProbe) nsPerEvent() float64 {
	if p.events == 0 {
		return 0
	}
	return float64(p.wall) / float64(p.events)
}

func probeCursor(src trace.Stream, end time.Duration) (cursorProbe, error) {
	var p cursorProbe
	start := time.Now()
	cur := trace.NewEventCursor(src)
	for {
		ev, ok := cur.Next()
		if !ok || ev.Time > end {
			break
		}
		p.events++
		if ev.Kind == trace.EventCreate {
			p.creates++
		}
		if l := cur.Live(); l > p.liveMax {
			p.liveMax = l
		}
	}
	p.wall = time.Since(start)
	return p, cur.Err()
}

// probePlaceExit times Pool.Place + Pool.Exit pairs on an empty pool of the
// workload's host count with one subscriber, the score cache's situation.
func probePlaceExit(hosts int) (nsPerPair float64, err error) {
	const pairs = 200_000
	pool := cluster.NewPool("probe", hosts, workload.DefaultHostShape)
	var seen int
	cancel := pool.Subscribe(func(*cluster.Host, cluster.HostEvent) { seen++ })
	defer cancel()
	vm := &cluster.VM{Shape: workload.DefaultHostShape.Scale(1.0 / 64)}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		vm.ID = cluster.VMID(i)
		if err := pool.Place(vm, pool.Host(cluster.HostID(i%hosts))); err != nil {
			return 0, err
		}
		if _, _, err := pool.Exit(vm.ID); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	if seen != 2*pairs {
		return 0, errors.New("place/exit probe: subscriber missed events")
	}
	return float64(d) / pairs, nil
}

// probeRollup times cell.RollUp over drained per-cell results.
func probeRollup(roll *cell.Rollup) (float64, error) {
	const reps = 200
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if _, err := cell.RollUp(roll.Router, roll.Hosts, roll.Cells); err != nil {
			return 0, err
		}
		times[i] = ms(time.Since(start))
	}
	return median(times), nil
}
