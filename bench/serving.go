package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"lava"
	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
	"lava/internal/workload"
)

// serveWorkload is an online workload: the event stream of one generated
// trace, sequence-numbered and sent over real HTTP to an in-process
// placement server. One stream is cut at fixed event indices into four
// phases, so the server sees exactly the trace's events and its drain must
// equal the offline replay of the same trace:
//
//	warm  closed loop   fills caches and connections; counted in setup_s
//	lo    open loop     loRate req/s: latency from the due time
//	hi    open loop     hiRate req/s: the same under load; both feed ontime_share
//	sat   closed loop   the rest of the stream: events_per_s
type serveWorkload struct {
	name         string
	cells        int // 1: serve.Server; more: serve.Fleet with that many cells
	hostsPerCell int
	classMix     string // fleet only: SLO class weights
	admission    string // fleet only: token-bucket admission spec
}

// serveSingle puts one 160-host pool (LAVA over the dist table, memoised)
// behind HTTP: the JSON codec, the admission queue and the reorder buffer
// are most of each request; scheduler and model are small.
var serveSingle = &serveWorkload{name: "serve-single", cells: 1, hostsPerCell: 160}

// serveFleet sends the same phases at the same rates to four such cells
// behind serve.Fleet's front door: global sequencer, feature-hash router,
// SLO gate (whose besteffort bucket refuses deterministically), per-cell
// reorder, rollup.
var serveFleet = &serveWorkload{name: "serve-fleet", cells: 4, hostsPerCell: 160,
	classMix: "latency=2,standard=6,besteffort=2", admission: "besteffort=2/3h:4"}

// serveSize fixes the phase boundaries as event counts; sat takes whatever
// the trace has left.
type serveSize struct {
	warm, lo, hi, sat int
	loRate, hiRate    float64
}

// serveSizeFor spends about 0.3 of the run at each open-loop rate and the
// rest saturated. On the 2-core box the sizes were chosen on, a 160-host
// server behind HTTP saturates at 9k-13k req/s with two closed-loop
// connections, depending on the host's mood. Two connections sending on a
// schedule build a backlog in every collector cycle from about half of
// that (the issue's 4,000 and 8,000 did), so the rates sit below it.
func serveSizeFor(seconds float64) serveSize {
	const loRate, hiRate, satRate = 2500, 4000, 12000
	return serveSize{
		loRate: loRate, hiRate: hiRate,
		warm: int(0.07 * seconds * satRate),
		lo:   int(0.3 * seconds * loRate),
		hi:   int(0.3 * seconds * hiRate),
		sat:  int(0.4 * seconds * satRate),
	}
}

// serveRounds is how many independent experiments one serving run makes.
// A fresh server, fresh connections and a fresh heap each settle into a
// saturation throughput of their own (9.0k-12.2k req/s over six servers
// started one after the other in one process on the 2-core box, while 5 s
// windows of one server's 36 s saturated phase stayed within 3.5%), and a
// 160-host pool's empty-host share differs by a sixth between traces.
const serveRounds = 3

func (z serveSize) events() int { return z.warm + z.lo + z.hi + z.sat }

// eventsPerHostDay is what workload.DefaultMix yields at 0.65 target
// utilisation, create and exit events together; it turns an event budget
// into a trace length.
const eventsPerHostDay = 15.2

// serveInput is the generated input of one serving run.
type serveInput struct {
	base *trace.Trace  // as generated: what the offline reference replays
	tr   *trace.Trace  // as sent: class-labelled on the fleet
	evs  []trace.Event // tr's events up to the horizon, in sequence order
	pred model.Predictor

	genMS float64 // workload.Generate alone
}

func (w *serveWorkload) hosts() int { return w.cells * w.hostsPerCell }

func (w *serveWorkload) generate(seed int64, size serveSize) (*serveInput, error) {
	days := int(math.Ceil(float64(size.events()) / (eventsPerHostDay * float64(w.hosts()))))
	if days < 3 {
		days = 3
	}
	prefill := time.Duration(days/3) * simtime.Day
	genStart := time.Now()
	base, err := workload.Generate(workload.PoolSpec{
		Name: w.name, Zone: "zone-a", Hosts: w.hosts(), TargetUtil: 0.65,
		Prefill: prefill, Duration: time.Duration(days)*simtime.Day - prefill,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		return nil, err
	}
	in := &serveInput{base: base, tr: base, genMS: ms(time.Since(genStart))}
	if in.pred, err = lava.TrainModel(base, lava.ModelDist); err != nil {
		return nil, err
	}
	if w.classMix != "" {
		if in.tr, err = lava.AssignClasses(base, w.classMix, seed); err != nil {
			return nil, err
		}
	}
	if in.evs, err = collectEvents(in.tr.Stream(), in.tr.End()); err != nil {
		return nil, err
	}
	if need := size.warm + size.lo + size.hi; len(in.evs) <= need {
		return nil, fmt.Errorf("trace has %d events, phases need more than %d", len(in.evs), need)
	}
	return in, nil
}

// fleetConfig is the facade configuration both arms of the fleet parity
// check are built from.
func (w *serveWorkload) fleetConfig(pred model.Predictor, seed int64) lava.FleetConfig {
	return lava.FleetConfig{
		ServeConfig:  lava.ServeConfig{Pred: pred, Memo: true, Admission: w.admission},
		Cells:        w.cells,
		Router:       lava.RouterFeatureHash,
		ClassMix:     w.classMix,
		ScenarioSeed: seed,
	}
}

// reference computes offline, with no server, the drain report the served
// run must reproduce byte for byte.
func (w *serveWorkload) reference(in *serveInput, seed int64) ([]byte, error) {
	if w.cells == 1 {
		res, err := lava.Simulate(in.base, lava.PolicyLAVA, in.pred)
		if err != nil {
			return nil, err
		}
		return json.Marshal(singleReport(res))
	}
	rep, err := lava.ReplayFleetOffline(in.base, w.fleetConfig(in.pred, seed))
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}

// singleReport is a single server's drain in the fleet wire shape, whose
// federation fields stay empty (serve.Client.DrainFleet decodes both).
func singleReport(res *sim.Result) serve.FleetDrainResponse {
	return serve.FleetDrainResponse{Pool: res.PoolName, Policy: res.Policy,
		Metrics: runner.MetricsOf(res), SeriesLen: res.Series.Len()}
}

// placer is the typed request surface serve.Server and serve.Fleet share.
type placer interface {
	Place(rec trace.Record, at time.Duration, seq uint64) (cluster.HostID, bool, error)
	ExitVM(id cluster.VMID, at time.Duration, seq uint64) (bool, error)
}

// statsSnap is the slice of /stats a traced run reads.
type statsSnap struct {
	queueDepth, pending int
	loopAvgUS           float64 // the server's own loop-side clock
	memo                *serve.MemoStats
}

// target is a running placement server of either kind.
type target struct {
	placer
	handler http.Handler
	close   func()
	stats   func() (statsSnap, error)
	drain   func() (serve.FleetDrainResponse, *cell.Rollup, error)
}

func singleTarget(srv *serve.Server) *target {
	return &target{placer: srv, handler: srv.Handler(), close: srv.Close,
		stats: func() (statsSnap, error) {
			st, err := srv.Stats()
			snap := statsSnap{queueDepth: st.QueueDepth, pending: st.Pending, memo: st.Memo}
			if st.Latency != nil {
				snap.loopAvgUS = 1e3 * st.Latency.AvgMs
			}
			return snap, err
		},
		drain: func() (serve.FleetDrainResponse, *cell.Rollup, error) {
			res, err := srv.Drain()
			if err != nil {
				return serve.FleetDrainResponse{}, nil, err
			}
			return singleReport(res), nil, nil
		}}
}

func fleetTarget(f *serve.Fleet, pool string) *target {
	return &target{placer: f, handler: f.Handler(), close: f.Close,
		stats: func() (statsSnap, error) {
			st, err := f.Stats()
			snap := statsSnap{queueDepth: st.QueueDepth, pending: st.Pending, memo: st.Memo}
			var n, sum float64
			for _, cs := range st.CellStats {
				if cs.Latency != nil {
					n += float64(cs.Latency.Requests)
					sum += float64(cs.Latency.Requests) * cs.Latency.AvgMs
				}
			}
			if n > 0 {
				snap.loopAvgUS = 1e3 * sum / n
			}
			return snap, err
		},
		drain: func() (serve.FleetDrainResponse, *cell.Rollup, error) {
			roll, err := f.Drain()
			if err != nil {
				return serve.FleetDrainResponse{}, nil, err
			}
			return serve.FleetReportOf(pool, roll.Cells[0].Policy, roll), roll, nil
		}}
}

// serveClocks is the instrumentation of one traced serving pass.
type serveClocks struct {
	rec   *spanRecorder
	http  *httpClock
	cells []*cellClock
	inner *predClock // the model itself, under the memo
	outer *predClock // memo + model, as the policies call it
}

func newServeClocks(in *serveInput, cells int) *serveClocks {
	n := len(in.evs) + 1
	sc := &serveClocks{rec: newSpanRecorder(), inner: &predClock{}, outer: &predClock{}}
	sc.http = &httpClock{rec: sc.rec, handlerNS: make([]int64, n), waitNS: make([]int64, n), policyBySeq: make([]int64, n)}
	seqs := newSeqIndex(in.evs, len(in.tr.Records))
	for c := 0; c < cells; c++ {
		sc.cells = append(sc.cells, &cellClock{rec: sc.rec, seqs: seqs, policyBySeqNS: sc.http.policyBySeq,
			createRoot: "serve.http.handler", exitRoot: "serve.http.handler"})
	}
	return sc
}

// start builds and starts the workload's server. Untraced it goes through
// the lava facade, exactly as lavad does. Traced it assembles the same
// server from the serve package with decorators between the layers:
//
//	policy decorator -> LAVA -> predictor decorator -> memo -> predictor decorator -> dist table
func (w *serveWorkload) start(in *serveInput, seed int64, sc *serveClocks) (*target, error) {
	if sc == nil {
		if w.cells == 1 {
			srv, err := lava.NewServer(in.tr, lava.ServeConfig{Pred: in.pred, Memo: true})
			if err != nil {
				return nil, err
			}
			return singleTarget(srv), nil
		}
		f, err := lava.NewFleet(in.base, w.fleetConfig(in.pred, seed))
		if err != nil {
			return nil, err
		}
		return fleetTarget(f, in.tr.PoolName), nil
	}
	memo := serve.Memoize(&timedPredictor{inner: in.pred, clk: sc.inner}, 0)
	policy := func(c int) (scheduler.Policy, error) {
		pred := &timedPredictor{inner: memo, clk: sc.outer, c: sc.cells[c]}
		return &tracedPolicy{inner: scheduler.NewLAVA(pred, time.Minute), c: sc.cells[c]}, nil
	}
	if w.cells == 1 {
		cfg := serve.FromTrace(in.tr)
		cfg.Policy, _ = policy(0)
		cfg.Memo = memo
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		return singleTarget(srv), nil
	}
	adm, err := slo.ParseConfig(w.admission)
	if err != nil {
		return nil, err
	}
	cfg := serve.FleetFromTrace(in.tr)
	cfg.Cells, cfg.Router, cfg.Memo, cfg.SLO, cfg.NewPolicy = w.cells, string(lava.RouterFeatureHash), memo, adm, policy
	f, err := serve.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	return fleetTarget(f, in.tr.PoolName), nil
}

// live is a started server behind a real listener, warmed up.
type live struct {
	in      *serveInput
	tgt     *target
	hs      *http.Server
	served  chan struct{}
	hc      *http.Client
	client  *serve.Client
	do      doFunc
	workers int
	started time.Time
}

// setup is everything a user pays before the first measured request:
// generate the trace, train the model, start the server, listen, and send
// the warm phase.
func (w *serveWorkload) setup(ctx context.Context, seed int64, size serveSize, traced bool) (*live, *serveClocks, error) {
	in, err := w.generate(seed, size)
	if err != nil {
		return nil, nil, err
	}
	var sc *serveClocks
	if traced {
		sc = newServeClocks(in, w.cells)
	}
	lv := &live{in: in, workers: runtime.NumCPU(), served: make(chan struct{}), started: time.Now()}
	if lv.tgt, err = w.start(in, seed, sc); err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lv.tgt.close()
		return nil, nil, err
	}
	handler := lv.tgt.handler
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: lv.workers, MaxIdleConnsPerHost: lv.workers}
	if traced {
		handler = sc.http.wrap(handler)
		rt = seqTransport{rt}
	}
	lv.hs = &http.Server{Handler: handler}
	go func() {
		defer close(lv.served)
		_ = lv.hs.Serve(ln) // returns ErrServerClosed on teardown
	}()
	lv.hc = &http.Client{Transport: rt}
	client := &serve.Client{Base: "http://" + ln.Addr().String(), HTTPClient: lv.hc}
	lv.client = client
	lv.do = func(ctx context.Context, ev trace.Event, seq uint64) error {
		if traced {
			ctx = withSeq(ctx, seq)
		}
		start := time.Now()
		var err error
		if ev.Kind == trace.EventCreate {
			_, err = client.Place(ctx, serve.PlaceRequest{Seq: seq, At: ev.Time, Record: ev.Rec})
		} else {
			_, err = client.Exit(ctx, serve.ExitRequest{Seq: seq, At: ev.Time, ID: ev.Rec.ID})
		}
		if traced && sampled(seq) {
			sc.rec.add("bench.client.request", "", seq, start, time.Now())
		}
		return err
	}
	if st := runPhase(ctx, phase{name: "warm", evs: in.evs[:size.warm], firstSeq: 1}, lv.workers, lv.do); st.failed > 0 {
		lv.teardown()
		return nil, nil, fmt.Errorf("warm phase: %d of %d requests failed", st.failed, st.sent)
	}
	return lv, sc, nil
}

// teardown stops the listener, waits for its goroutine and stops the
// server's event loops.
func (lv *live) teardown() {
	_ = lv.hs.Close()
	<-lv.served
	lv.hc.CloseIdleConnections()
	lv.tgt.close()
}

// passStats is one measured pass over the lo, hi and sat phases and the
// drain.
type passStats struct {
	lo, hi, sat *phaseStats
	drainMS     float64
	report      serve.FleetDrainResponse
	reportJSON  []byte
	mem         memDelta
	wall        time.Duration // server start to drain end
	// Polled at 20 Hz while traced.
	pendingMax, queueMax int
	final                statsSnap
}

func (p *passStats) phases() []*phaseStats { return []*phaseStats{p.lo, p.hi, p.sat} }

func (p *passStats) requests() (sent, failed int) {
	for _, ph := range p.phases() {
		sent += ph.sent
		failed += ph.failed
	}
	return sent, failed
}

// measure runs the three timed phases and the drain against a warmed-up
// server. poll additionally samples the server's queue and reorder depth.
func (lv *live) measure(ctx context.Context, size serveSize, poll bool) (*passStats, error) {
	ps := &passStats{}
	evs := lv.in.evs
	cut := []int{size.warm, size.warm + size.lo, size.warm + size.lo + size.hi, len(evs)}
	stop, polled := make(chan struct{}), make(chan struct{})
	if poll {
		go func() {
			defer close(polled)
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if st, err := lv.tgt.stats(); err == nil {
						ps.pendingMax = max(ps.pendingMax, st.pending)
						ps.queueMax = max(ps.queueMax, st.queueDepth)
					}
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(polled)
	}
	mw := startMemWatch()
	run := func(name string, i int, rate float64) *phaseStats {
		st := runPhase(ctx, phase{name: name, evs: evs[cut[i]:cut[i+1]], firstSeq: uint64(cut[i] + 1), rate: rate}, lv.workers, lv.do)
		mw.sample()
		return st
	}
	ps.lo = run("lo", 0, size.loRate)
	ps.hi = run("hi", 1, size.hiRate)
	ps.sat = run("sat", 2, 0)
	close(stop)
	<-polled
	var err error
	if ps.final, err = lv.tgt.stats(); err != nil {
		return nil, err
	}
	start := time.Now()
	ps.report, err = lv.client.DrainFleet(ctx)
	ps.drainMS = ms(time.Since(start))
	ps.mem = mw.finish()
	ps.wall = time.Since(lv.started)
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	ps.reportJSON, err = json.Marshal(ps.report)
	return ps, err
}

func (w *serveWorkload) run(cfg runConfig) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if cfg.traced {
		return w.runTraced(ctx, cfg)
	}
	// serveRounds complete experiments, each on its own trace against its
	// own server: generate, train, start, warm, the three timed phases,
	// drain, parity check.
	out := newOutcome()
	size := serveSizeFor(cfg.seconds / serveRounds)
	rs := &roundStats{}
	for k := 0; k < serveRounds; k++ {
		seed := roundSeed(cfg.seed, k)
		start := time.Now()
		lv, _, err := w.setup(ctx, seed, size, false)
		if err != nil {
			return nil, err
		}
		setupS := time.Since(start).Seconds()
		ps, err := lv.measure(ctx, size, false)
		lv.teardown()
		if err != nil {
			return nil, err
		}
		if err := w.check(out, lv.in, seed, ps.reportJSON, fmt.Sprintf("round %d: served drain", k)); err != nil {
			return nil, err
		}
		ps.notePhases(out, fmt.Sprintf("round %d", k))
		sent, failed := ps.requests()
		out.attempted += sent
		out.failed += failed
		m := ps.report.Metrics
		rs.add(roundValues{
			setupS:       setupS,
			rates:        ps.sat.segmentRates(),
			onTimeShare:  (ps.lo.onTimeShare() + ps.hi.onTimeShare()) / 2,
			placements:   m.Placements,
			failedPlace:  m.Failed,
			emptyFrac:    m.AvgEmptyHostFrac,
			peakHeapMB:   ps.mem.peakHeapMB,
			allocKBPerEv: ps.mem.allocBytes / 1024 / float64(sent),
		})
	}
	rs.report(out)
	return out, nil
}

// check compares a drain report with the offline reference.
func (w *serveWorkload) check(out *outcome, in *serveInput, seed int64, got []byte, what string) error {
	want, err := w.reference(in, seed)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		out.fail("%s differs from the offline replay:\n got %s\nwant %s", what, got, want)
	}
	return nil
}

// notePhases prints each phase's counts and whole-phase latencies.
func (ps *passStats) notePhases(out *outcome, pass string) {
	for _, ph := range ps.phases() {
		out.note("%s %s: sent %d ok %d rejected %d failed %d late %d in %.2fs (%.0f/s); over the whole phase p50 %.3f p95 %.3f p99 %.3f ms, generator woke late p95 %.3f ms",
			pass, ph.name, ph.sent, ph.ok, ph.rejected, ph.failed, ph.late, ph.wall.Seconds(), float64(ph.sent)/ph.wall.Seconds(),
			percentile(ph.latMS, 0.50), percentile(ph.latMS, 0.95), percentile(ph.latMS, 0.99), percentile(ph.genLateMS, 0.95))
	}
}

// runTraced measures the serving layers: isolated probes, an untraced pass
// and a decorated pass of one round's length each (their ratio is the
// tracing overhead), and a pass that calls the server's typed methods directly,
// which is what the HTTP layer's share is measured against.
func (w *serveWorkload) runTraced(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	// Round 0 of the untraced run: same trace, same phase sizes.
	seed := roundSeed(cfg.seed, 0)
	size := serveSizeFor(cfg.seconds / serveRounds)

	in, err := w.generate(seed, size)
	if err != nil {
		return nil, err
	}
	out.set("workload.gen_ms", in.genMS)
	out.set("workload.records", float64(len(in.tr.Records)))
	probe, err := probeCursor(in.tr.Stream(), in.tr.End())
	if err != nil {
		return nil, err
	}
	out.set("trace.cursor_ns_per_event", probe.nsPerEvent())
	out.set("trace.live_max", float64(probe.liveMax))
	pe, err := probePlaceExit(w.hostsPerCell)
	if err != nil {
		return nil, err
	}
	out.set("cluster.place_exit_ns", pe)

	// Untraced pass: the baseline the traced pass is compared with.
	lv, _, err := w.setup(ctx, seed, size, false)
	if err != nil {
		return nil, err
	}
	plain, err := lv.measure(ctx, size, false)
	lv.teardown()
	if err != nil {
		return nil, err
	}

	// Traced pass.
	lv, sc, err := w.setup(ctx, seed, size, true)
	if err != nil {
		return nil, err
	}
	ps, err := lv.measure(ctx, size, true)
	lv.teardown()
	if err != nil {
		return nil, err
	}
	// Tracing is observe-only: both passes drain to the reference bytes.
	if err := w.check(out, in, seed, plain.reportJSON, "untraced drain"); err != nil {
		return nil, err
	}
	if err := w.check(out, in, seed, ps.reportJSON, "traced drain"); err != nil {
		return nil, err
	}
	plain.notePhases(out, "untraced")
	ps.notePhases(out, "traced")
	out.attempted, out.failed = ps.requests()
	w.layers(out, in, sc, ps)
	out.set("bench.trace_overhead_share", 1-ps.sat.perSecond()/plain.sat.perSecond())
	// Client-side latency from the due time comes from the untraced pass.
	out.setN("serve.lo.p50_ms", plain.lo.latencyMS(0.50), plain.lo.ok)
	out.setN("serve.lo.p95_ms", plain.lo.latencyMS(0.95), plain.lo.ok)
	out.setN("serve.hi.p95_ms", plain.hi.latencyMS(0.95), plain.hi.ok)
	out.set("serve.hi.backlog_growth_ms", plain.hi.backlogGrowthMS())
	// The worse of the two open-loop phases: past ~1 ms the generator, not
	// the server, is what the latencies above measure.
	out.setN("bench.gen_late_ms_p95", math.Max(percentile(plain.lo.genLateMS, 0.95), percentile(plain.hi.genLateMS, 0.95)),
		len(plain.lo.genLateMS)+len(plain.hi.genLateMS))

	// In-process pass: the whole stream, closed loop, straight into the
	// typed methods: no HTTP, no JSON.
	tgt, err := w.start(in, seed, nil)
	if err != nil {
		return nil, err
	}
	defer tgt.close()
	direct := runPhase(ctx, phase{name: "inproc", evs: in.evs, firstSeq: 1}, runtime.NumCPU(),
		func(_ context.Context, ev trace.Event, seq uint64) error {
			var err error
			if ev.Kind == trace.EventCreate {
				_, _, err = tgt.Place(ev.Rec, ev.Time, seq)
			} else {
				_, err = tgt.ExitVM(ev.Rec.ID, ev.Time, seq)
			}
			return err
		})
	report, roll, err := tgt.drain()
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(report)
	if err != nil {
		return nil, err
	}
	if err := w.check(out, in, seed, got, "in-process drain"); err != nil {
		return nil, err
	}
	out.attempted += direct.sent
	out.failed += direct.failed
	out.setN("serve.inproc.events_per_s", direct.perSecond(), direct.sent)
	out.set("serve.http.share", 1-plain.sat.perSecond()/direct.perSecond())
	if roll != nil {
		var placeUS []float64
		for i, d := range direct.rttNS {
			if in.evs[i].Kind == trace.EventCreate {
				placeUS = append(placeUS, float64(d)/1e3)
			}
		}
		sort.Float64s(placeUS)
		out.setN("serve.fleet.call_us_p50", percentile(placeUS, 0.50), len(placeUS))
		rollupMS, err := probeRollup(roll)
		if err != nil {
			return nil, err
		}
		out.set("cell.rollup_ms", rollupMS)
	}

	n, err := sc.rec.write(cfg.spanDir, w.name)
	if err != nil {
		return nil, err
	}
	out.set("bench.spans_written", float64(n))
	return out, nil
}

// layers turns one traced pass's clocks into the per-layer metrics.
func (w *serveWorkload) layers(out *outcome, in *serveInput, sc *serveClocks, ps *passStats) {
	wall := float64(ps.wall)
	creates := 0
	for i := range in.evs {
		if in.evs[i].Kind == trace.EventCreate {
			creates++
		}
	}

	// model and memo: the inner clock is the dist table alone, the outer
	// one is what LAVA pays per prediction.
	inner, outer := sc.inner, sc.outer
	inner.report(out, ps.wall)
	out.set("model.calls_per_placement", float64(outer.calls.Load())/float64(creates))
	memoSelf := float64(outer.sumNS.Load() - inner.sumNS.Load())
	out.set("serve.memo.self_us_per_call", memoSelf/1e3/float64(outer.calls.Load()))
	out.set("serve.memo.busy_share", memoSelf/wall)
	if m := ps.final.memo; m != nil {
		out.set("serve.memo.hit_ratio", float64(m.Hits)/float64(m.Hits+m.Misses))
		out.set("serve.memo.entries", float64(m.Entries))
	}

	// scheduler: every cell's policy decorator, pooled.
	var policy policySums
	for _, c := range sc.cells {
		policy.add(c)
	}
	policy.report(out, ps.wall, len(in.evs))
	noCap := policy.noCapacity
	if m := ps.report.Metrics; noCap != int64(m.Failed) {
		out.fail("policy decorator saw %d ErrNoCapacity, the drain reports %d failed placements", noCap, m.Failed)
	}

	// HTTP: client round trip, handler, and what is left of each.
	var rtt, handler, wire, wait []float64
	for _, ph := range ps.phases() {
		for i, d := range ph.rttNS {
			seq := ph.firstSeq + uint64(i)
			h := sc.http.handlerNS[seq]
			if d == 0 || h == 0 {
				continue
			}
			rtt = append(rtt, float64(d)/1e3)
			handler = append(handler, float64(h)/1e3)
			wire = append(wire, float64(d-h)/1e3)
			wait = append(wait, float64(sc.http.waitNS[seq])/1e3)
		}
	}
	for _, v := range [][]float64{rtt, handler, wire, wait} {
		sort.Float64s(v)
	}
	out.setN("serve.http.rtt_us_p50", percentile(rtt, 0.50), len(rtt))
	out.setN("serve.http.rtt_us_p99", percentile(rtt, 0.99), len(rtt))
	out.setN("serve.http.handler_us_p50", percentile(handler, 0.50), len(handler))
	out.setN("serve.http.wire_us_p50", percentile(wire, 0.50), len(wire))
	out.setN("serve.loop.wait_us_p50", percentile(wait, 0.50), len(wait))
	out.set("serve.loop.apply_us_avg", ps.final.loopAvgUS)
	if n := float64(sc.http.requests.Load()); n > 0 {
		out.set("serve.http.req_bytes_avg", float64(sc.http.reqBytes.Load())/n)
		out.set("serve.http.resp_bytes_avg", float64(sc.http.respBytes.Load())/n)
	}
	out.set("serve.reorder.pending_max", float64(ps.pendingMax))
	out.set("serve.queue.depth_max", float64(ps.queueMax))
	out.set("serve.drain_ms", ps.drainMS)

	// Fleet front door and SLO gate, from the drain (all deterministic).
	m := ps.report.Metrics
	if len(ps.report.Cells) > 0 {
		var maxP, sumP float64
		for _, c := range ps.report.Cells {
			maxP = math.Max(maxP, float64(c.Metrics.Placements))
			sumP += float64(c.Metrics.Placements)
		}
		out.set("serve.fleet.cell_skew", maxP/(sumP/float64(len(ps.report.Cells))))
		out.set("serve.fleet.util_spread", ps.report.UtilSpread)
	}
	if m.SLO != nil {
		var admitted, rejected int64
		for _, c := range m.SLO.Classes {
			admitted += c.Admitted
			rejected += c.Rejected
		}
		out.set("slo.rejected_share", float64(rejected)/float64(admitted+rejected))
		out.set("slo.fairness", m.SLO.Fairness)
	}
	out.set("runtime.gc_cycles", ps.mem.gcCycles)
	out.set("runtime.gc_pause_ms_total", ps.mem.gcPauseMS)
}
