package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/cluster"
	"lava/internal/metrics"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// Errors surfaced to clients. The HTTP layer maps ErrDraining to 503 and
// sequencing errors to 409.
var (
	ErrDraining = errors.New("serve: draining, no new work accepted")
	ErrClosed   = errors.New("serve: server closed")
	errStaleSeq = errors.New("serve: sequence number already processed")
	errDupSeq   = errors.New("serve: duplicate sequence number in flight")
)

// Config configures a Server. PoolName, Hosts, HostShape, WarmUp and
// Horizon play the roles the corresponding trace header fields play in an
// offline run; FromTrace fills them from a trace.
type Config struct {
	PoolName  string
	Hosts     int
	HostShape resources.Vector

	// WarmUp is excluded from the final aggregates (Appendix F), exactly as
	// in sim.Config.
	WarmUp time.Duration

	// Horizon is the virtual-time measurement end: /drain advances to it
	// before computing aggregates. For replay parity set it to the trace's
	// End(); zero means "aggregate up to the last time reached".
	Horizon time.Duration

	// Policy makes the placement decisions. The server owns it: per the
	// scheduler package's contract, policies carry mutable caches and must
	// not be shared with concurrent runs.
	Policy scheduler.Policy

	// TickEvery and SampleEvery default to the simulator's 5m / 1h.
	TickEvery   time.Duration
	SampleEvery time.Duration

	// Injectors run on every virtual tick, as in sim.Config.
	Injectors []sim.Injector

	// QueueDepth bounds the admission queue (default 256). Enqueueing
	// blocks when the queue is full — backpressure, not load shedding.
	QueueDepth int

	// Memo changes no decision and costs no memory; a config that sets it
	// gets a memo block in /stats (see MemoStats).
	//
	// Deprecated: there is no memo table (see Memoize); the field stays
	// because bench/ sets it.
	Memo *MemoPredictor

	// TraceK > 0 enables decision tracing: every placement decision is
	// recorded with its top-K scored alternatives and served by the /trace
	// endpoint. Zero disables tracing (no recorder, no hot-path cost).
	TraceK int

	// TraceCap bounds the in-memory decision ring (a serving daemon runs
	// indefinitely). Default 8192 when tracing is on; negative means
	// unbounded, for replay-grade traces.
	TraceCap int

	// TraceOut, when set, additionally persists every decision as one JSON
	// line, surviving ring eviction.
	TraceOut io.Writer

	// SLO enables per-class token-bucket admission inside the machine (see
	// sim.Config.SLO): over-budget placements answer 429 with a typed body,
	// /stats and /drain grow per-class blocks, and the latency histogram
	// splits by class. Nil — or an all-unlimited, non-tracking config —
	// keeps the server byte-identical to a pre-class build.
	SLO *slo.Config
}

// DefaultTraceCap is the decision-ring capacity a traced server uses when
// the config does not choose one.
const DefaultTraceCap = 8192

// FromTrace derives the serving geometry from a trace header: pool name,
// hosts, host shape, warm-up, and the trace's measurement end as the
// horizon. The records themselves are not retained — the daemon serves
// whatever requests arrive.
func FromTrace(tr *trace.Trace) Config {
	return Config{
		PoolName:  tr.PoolName,
		Hosts:     tr.Hosts,
		HostShape: tr.HostShape(),
		WarmUp:    tr.WarmUp,
		Horizon:   tr.End(),
	}
}

// reqKind enumerates loop operations.
type reqKind uint8

const (
	reqExit reqKind = iota
	reqPlace
	reqTick
	reqAddHosts
	reqRemoveHost
	reqMigrateOut
	reqMigrateIn
	reqSnapshot
	reqStats
	reqDrain
)

// request is one admission-queue entry, and — with cell set — one step of a
// fleet operation's plan (see topology.plan).
type request struct {
	kind reqKind
	cell int            // fleet steps: the cell this request is for
	seq  uint64         // >0: position in the strictly ordered client stream
	at   time.Duration  // virtual time of the event
	rec  trace.Record   // reqPlace
	id   cluster.VMID   // reqExit, reqMigrateOut
	n    int            // reqAddHosts
	hid  cluster.HostID // reqRemoveHost
	vm   *cluster.VM    // reqMigrateIn (nil: sequencing no-op)
	resp chan response  // buffered(1): the loop never blocks responding
}

// response carries the outcome back to the waiting handler.
type response struct {
	err     error
	host    cluster.HostID // reqPlace, reqMigrateIn
	placed  bool           // reqPlace, reqMigrateIn
	removed bool           // reqExit
	vm      *cluster.VM    // reqMigrateOut (nil: VM was not running)
	now     time.Duration  // reqTick
	sample  metrics.Sample // reqSnapshot
	stats   *Stats         // reqStats (a pointer: every request's response channel is sized by this struct)
	final   *sim.Result    // reqDrain
}

// Stats is the /stats payload, one recursive type for both shapes of the
// service. A Server answers a leaf: live serving counters plus its machine's
// position. A Fleet answers a node: the same counters summed over its cells
// (Hosts, VMs and NowNS — the furthest cell clock — over the live ones), the
// federation fields, and one leaf per cell in CellStats. The federation
// fields are omitted from a leaf, so a single server's payload is what it was
// before there was a fleet.
type Stats struct {
	Pool       string               `json:"pool"`
	Policy     string               `json:"policy"`
	Hosts      int                  `json:"hosts"`
	VMs        int                  `json:"vms"`
	NowNS      time.Duration        `json:"now_ns"`
	HorizonNS  time.Duration        `json:"horizon_ns"`
	Placements int                  `json:"placements"`
	Exits      int                  `json:"exits"`
	Failed     int                  `json:"failed"`
	ModelCalls int64                `json:"model_calls,omitempty"`
	QueueDepth int                  `json:"queue_depth"`
	Pending    int                  `json:"pending_seq"` // requests parked at the sequencer (a node's front door: its cells park none)
	Draining   bool                 `json:"draining"`
	Latency    *runner.ServingStats `json:"latency,omitempty"` // loop-side; leaves only
	Memo       *MemoStats           `json:"memo,omitempty"`    // Deprecated: see MemoStats

	// SLO is the live per-class admission block (counts + Jain fairness);
	// omitted when the SLO layer is off, so pre-class clients decode the
	// payload unchanged. A node merges its front-door gate's admission
	// counters with the cells' per-class lifecycle counts.
	SLO *slo.Summary `json:"slo,omitempty"`

	// Node fields. Retired lists cells merged away by elasticity ops: still
	// visible in CellStats (their counters are real history) but excluded
	// from the Hosts/VMs/NowNS totals — their capacity moved to the
	// surviving cell.
	Router    string  `json:"router,omitempty"`
	CellCount int     `json:"cells,omitempty"`
	Retired   []int   `json:"retired_cells,omitempty"`
	CellStats []Stats `json:"cell_stats,omitempty"`
}

// MemoStats is the memo block of /stats. The table it described is gone (see
// Memoize): the type decodes documents written while there was one, and a
// config that still sets Memo reports every forwarded call as a miss —
// bench/'s own tests require its serve.memo.* rows to be measured. A daemon
// never sets Memo, so its /stats has no such block.
//
// Deprecated: carries no information the model_calls counter does not.
type MemoStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

func (cfg *Config) memoStats() *MemoStats {
	if cfg.Memo == nil {
		return nil
	}
	return &MemoStats{Misses: cfg.Memo.calls.Load()}
}

// Server is the online placement service: one event loop, one pool, one
// policy. Create with New; drive over HTTP via Handler or in-process via
// the typed methods the handlers use.
type Server struct {
	cfg    Config
	m      *sim.Machine
	tracer *ptrace.Recorder // nil: tracing disabled

	order    *sequencer // the client stream's
	reqs     chan *request
	stop     chan struct{} // closed by Close
	loopDone chan struct{}
	closed   atomic.Bool

	// lat records per-request processing latency (loop-side). Client-side
	// round-trip latency is the load generator's to measure.
	lat     runner.LatencyHist
	started time.Time
}

// newMachine validates cfg, fills its defaults and builds the engine it
// describes: a sim.Machine over a header-only trace carrying the geometry,
// plus the decision recorder when tracing is on. New wraps the machine in an
// event loop and RunScriptOffline drives it bare, so the two arms of the
// parity harness cannot be set up differently.
func newMachine(cfg *Config) (*sim.Machine, *ptrace.Recorder, error) {
	if cfg.Hosts <= 0 {
		return nil, nil, errors.New("serve: config needs hosts")
	}
	if cfg.Policy == nil {
		return nil, nil, errors.New("serve: config needs a policy")
	}
	if !cfg.HostShape.NonNegative() || cfg.HostShape.IsZero() {
		return nil, nil, fmt.Errorf("serve: bad host shape %s", cfg.HostShape)
	}
	if cfg.PoolName == "" {
		cfg.PoolName = "pool"
	}
	ht := &trace.Trace{
		PoolName: cfg.PoolName,
		Hosts:    cfg.Hosts,
		HostCPU:  cfg.HostShape.CPUMilli,
		HostMem:  cfg.HostShape.MemoryMB,
		HostSSD:  cfg.HostShape.SSDGB,
		WarmUp:   cfg.WarmUp,
		Horizon:  cfg.Horizon,
	}
	var tracer *ptrace.Recorder
	if cfg.TraceK > 0 {
		capacity := cfg.TraceCap
		switch {
		case capacity == 0:
			capacity = DefaultTraceCap
		case capacity < 0:
			capacity = 0 // unbounded
		}
		tracer = ptrace.New(ptrace.Options{
			K:        cfg.TraceK,
			Capacity: capacity,
			Out:      cfg.TraceOut,
			Policy:   cfg.Policy.Name(),
		})
	}
	cfg.SLO = cfg.SLO.Normalize()
	m, err := sim.NewMachine(sim.Config{
		Trace:       ht,
		Policy:      cfg.Policy,
		WarmUp:      cfg.WarmUp,
		SampleEvery: cfg.SampleEvery,
		TickEvery:   cfg.TickEvery,
		Injectors:   cfg.Injectors,
		Tracer:      tracer,
		SLO:         cfg.SLO,
	})
	return m, tracer, err
}

// New builds and starts a server. The event loop runs until Close.
func New(cfg Config) (*Server, error) {
	m, tracer, err := newMachine(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	s := &Server{
		cfg:      cfg,
		m:        m,
		tracer:   tracer,
		order:    newSequencer(),
		reqs:     make(chan *request, cfg.QueueDepth),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		started:  time.Now(),
	}
	go s.loop()
	return s, nil
}

// Close stops the event loop. Pending requests are answered with ErrClosed.
// Close does not drain; call Drain first for a graceful shutdown.
func (s *Server) Close() {
	s.halt()
	s.order.close()
	<-s.loopDone
}

// halt stops the event loop without waiting for it. It takes no lock: a
// turn-holder blocked on the full queue holds the sequencer's, and is let go
// by the closed stop channel.
func (s *Server) halt() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
	}
}

// submit enqueues a request, waits for the loop's response and, when that
// is error-free, returns r to the pool. A mutating request is enqueued
// during its sequencer turn, so the loop receives the sequenced stream in
// order.
func (s *Server) submit(r *request) response {
	var err error
	if !mutating(r.kind) {
		err = s.enqueue(r)
	} else if err = s.order.enter(r.seq); err == nil {
		err = s.enqueue(r)
		s.order.leave(r.seq)
	}
	if err != nil {
		return response{err: err}
	}
	resp := s.await(r)
	if resp.err == nil {
		r.release()
	}
	return resp
}

// enqueue hands r to the event loop without waiting for the answer; a nil
// return obliges the caller to await it. The fleet executor enqueues a whole
// plan's independent steps before it awaits the first, so the cells work in
// parallel.
func (s *Server) enqueue(r *request) error {
	select {
	case s.reqs <- r:
		return nil
	case <-s.stop:
		return ErrClosed
	}
}

// await blocks for the loop's response to an enqueued request.
func (s *Server) await(r *request) response {
	select {
	case resp := <-r.resp:
		return resp
	case <-s.stop:
		return response{err: ErrClosed}
	}
}

// mutating reports whether a request kind changes pool or time state.
// Admin (elasticity) ops count: they advance virtual time and are rejected
// once the server drains, exactly like placements.
func mutating(k reqKind) bool {
	switch k {
	case reqPlace, reqExit, reqTick, reqAddHosts, reqRemoveHost, reqMigrateOut, reqMigrateIn:
		return true
	default:
		return false
	}
}

// reqPool holds request values with their response channels, so the hot
// routes allocate neither per request.
var reqPool = sync.Pool{New: func() any { return &request{resp: make(chan response, 1)} }}

// newRequest takes a request, with its response channel, from the pool.
func newRequest(kind reqKind) *request {
	r := reqPool.Get().(*request)
	r.kind = kind
	return r
}

// release returns r to the pool. Callers release only a request whose
// answer they received without error: then no loop holds r any longer and
// its channel is empty. A failed request is left to the collector, since a
// loop stopped mid-turn may still answer it.
func (r *request) release() {
	*r = request{resp: r.resp}
	reqPool.Put(r)
}

// Place schedules one VM at virtual time at (clamped forward to the
// server's current time). seq > 0 enrolls the request in the strictly
// ordered client stream. The returned host is nil when no feasible host
// exists — a failed placement, not an error.
func (s *Server) Place(rec trace.Record, at time.Duration, seq uint64) (host cluster.HostID, placed bool, err error) {
	r := newRequest(reqPlace)
	r.rec, r.at, r.seq = rec, at, seq
	resp := s.submit(r)
	return resp.host, resp.placed, resp.err
}

// ExitVM removes a VM at virtual time at. removed is false for VMs the
// server never placed (e.g. their placement failed for capacity).
func (s *Server) ExitVM(id cluster.VMID, at time.Duration, seq uint64) (removed bool, err error) {
	r := newRequest(reqExit)
	r.id, r.at, r.seq = id, at, seq
	resp := s.submit(r)
	return resp.removed, resp.err
}

// Tick advances virtual time to at, firing due samples and policy ticks.
func (s *Server) Tick(at time.Duration, seq uint64) (now time.Duration, err error) {
	r := newRequest(reqTick)
	r.at, r.seq = at, seq
	resp := s.submit(r)
	return resp.now, resp.err
}

// Snapshot measures the pool at the current virtual time without advancing
// it.
func (s *Server) Snapshot() (metrics.Sample, error) {
	resp := s.submit(newRequest(reqSnapshot))
	return resp.sample, resp.err
}

// Stats reports serving counters.
func (s *Server) Stats() (Stats, error) {
	resp := s.submit(newRequest(reqStats))
	if resp.err != nil {
		return Stats{}, resp.err
	}
	// Read here, not on the loop: a turn-holder blocked on the full queue
	// holds the sequencer's lock until the loop takes its request.
	resp.stats.Pending = s.order.pending()
	return *resp.stats, nil
}

// Tracer returns the server's decision recorder, nil when tracing is
// disabled (Config.TraceK == 0). The recorder is internally synchronized:
// queries are safe while the event loop records.
func (s *Server) Tracer() *ptrace.Recorder { return s.tracer }

// Drain gracefully finishes the run: rejects new mutating work, processes
// everything already admitted (the sequencer's flush enqueues its parked
// requests first), advances to the horizon, and returns the final
// aggregates. Idempotent — later calls return the same result.
func (s *Server) Drain() (*sim.Result, error) {
	s.order.flush()
	resp := s.submit(newRequest(reqDrain))
	return resp.final, resp.err
}

// loop is the single writer over the machine: it applies each request in the
// order it was queued. Every mutating request is enqueued during its
// sequencer turn, and a drain only after the sequencer's flush, so queue order
// is the order requests took their turns.
func (s *Server) loop() {
	defer close(s.loopDone)
	for {
		select {
		case r := <-s.reqs:
			s.apply(r)
		case <-s.stop:
			return
		}
	}
}

// apply executes one request against the machine and responds.
func (s *Server) apply(r *request) {
	start := time.Now()
	var resp response
	switch r.kind {
	case reqSnapshot:
		resp.sample = metrics.Snapshot(s.m.Pool(), s.m.Now())
	case reqStats:
		st := s.statsNow()
		resp.stats = &st
	case reqDrain:
		resp.final, resp.err = s.m.Finish()
	default:
		resp = applyTo(s.m, r)
		cls := "" // placements split the histogram by class when the SLO layer is on
		if s.cfg.SLO != nil && r.kind == reqPlace {
			cls, _ = slo.ParseClass(r.rec.Class)
		}
		if cls != "" {
			s.lat.RecordClass(cls, time.Since(start))
		} else {
			s.lat.Record(time.Since(start))
		}
	}
	r.resp <- resp
}

// applyTo executes one mutating request against a machine. It is the single
// request→sim.Machine mapping: the cell event loop calls it on its own
// goroutine, RunScriptOffline in plain program order.
func applyTo(m *sim.Machine, r *request) (resp response) {
	switch r.kind {
	case reqPlace:
		var h *cluster.Host
		if h, resp.err = m.Create(r.rec, r.at); h != nil {
			resp.host, resp.placed = h.ID, true
		}
	case reqExit:
		resp.removed, resp.err = m.Exit(r.id, r.at)
	case reqTick:
		resp.err = m.Advance(r.at)
		resp.now = m.Now()
	case reqAddHosts:
		resp.err = m.AddHosts(r.n, r.at)
	case reqRemoveHost:
		resp.err = m.RemoveHost(r.hid, r.at)
	case reqMigrateOut:
		// A nil vm with no error means the VM was not running here (its
		// placement failed for capacity): a sequencing no-op.
		resp.vm, _, resp.err = m.MigrateOut(r.id, r.at)
	case reqMigrateIn:
		// A nil r.vm still occupies its slot in the cell's ordered stream;
		// placed false means no feasible host: the VM is lost and counted
		// failed, as a capacity-failed placement would be.
		var h *cluster.Host
		if h, resp.placed, resp.err = m.MigrateIn(r.vm, r.at); h != nil {
			resp.host = h.ID
		}
	}
	if errors.Is(resp.err, sim.ErrFinished) {
		resp.err = ErrDraining
	}
	return resp
}

// modelCaller mirrors the simulator's policy-telemetry interface.
type modelCaller interface{ ModelCalls() int64 }

// statsNow assembles the Stats payload on the loop goroutine; Stats adds
// the sequencer's count.
func (s *Server) statsNow() Stats {
	pool := s.m.Pool()
	placements, exits, failed := s.m.Counts()
	st := Stats{
		Pool:       pool.Name,
		Policy:     s.cfg.Policy.Name(),
		Hosts:      pool.NumHosts(),
		VMs:        pool.NumVMs(),
		NowNS:      s.m.Now(),
		HorizonNS:  s.m.End(),
		Placements: placements,
		Exits:      exits,
		Failed:     failed,
		QueueDepth: len(s.reqs),
		Draining:   s.order.draining.Load(),
		Latency:    s.lat.Stats(time.Since(s.started)),
	}
	if mc, ok := s.cfg.Policy.(modelCaller); ok {
		st.ModelCalls = mc.ModelCalls()
	}
	st.Memo = s.cfg.memoStats()
	st.SLO = s.m.SLOSummary()
	return st
}
