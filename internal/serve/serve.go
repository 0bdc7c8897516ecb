package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"
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
	reqExit reqKind = iota // canonical order: exits before placements...
	reqPlace
	reqTick // ...then explicit time advances...
	// ...then admin ops (fleet elasticity), in a fixed relative order.
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
	Pending    int                  `json:"pending_seq"` // reorder-buffer occupancy; a node adds its global sequencer's
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

	reqs     chan *request
	stop     chan struct{} // closed by Close
	loopDone chan struct{}

	draining atomic.Bool
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
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
	}
	<-s.loopDone
}

// submit enqueues a request and waits for the loop's response.
func (s *Server) submit(r *request) response {
	if err := s.enqueue(r); err != nil {
		return response{err: err}
	}
	return s.await(r)
}

// enqueue hands r to the event loop without waiting for the answer; a nil
// return obliges the caller to await it. The fleet executor enqueues a whole
// plan's independent steps before it awaits the first, so the cells work in
// parallel.
func (s *Server) enqueue(r *request) error {
	if mutating(r.kind) && s.draining.Load() {
		return ErrDraining
	}
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

// newRequest builds a request with its response channel.
func newRequest(kind reqKind) *request {
	return &request{kind: kind, resp: make(chan response, 1)}
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
	return *resp.stats, nil
}

// Tracer returns the server's decision recorder, nil when tracing is
// disabled (Config.TraceK == 0). The recorder is internally synchronized:
// queries are safe while the event loop records.
func (s *Server) Tracer() *ptrace.Recorder { return s.tracer }

// Drain gracefully finishes the run: rejects new mutating work, processes
// everything already admitted, advances to the horizon, and returns the
// final aggregates. Idempotent — later calls return the same result.
func (s *Server) Drain() (*sim.Result, error) {
	s.draining.Store(true)
	resp := s.submit(newRequest(reqDrain))
	return resp.final, resp.err
}

// loop is the single writer over the machine. It blocks for one request,
// opportunistically drains the rest of the queue into a batch, orders the
// batch canonically, and applies it.
func (s *Server) loop() {
	defer close(s.loopDone)
	var (
		batch   []*request
		drains  []*request
		pending = make(map[uint64]*request) // sequenced requests awaiting their turn
		nextSeq = uint64(1)
		drained bool // a drain has completed: nothing may park anymore
	)
	for {
		var r *request
		select {
		case r = <-s.reqs:
		case <-s.stop:
			return
		}
		batch = append(batch[:0], r)
	fill:
		for {
			select {
			case r2 := <-s.reqs:
				batch = append(batch, r2)
			default:
				break fill
			}
		}
		clampBatch(batch, s.m.Now())
		orderBatch(batch)

		drains = drains[:0]
		for _, r := range batch {
			switch {
			case r.kind == reqDrain:
				drains = append(drains, r)
			case r.seq > 0:
				switch {
				// A sequenced request that slipped past the handler's
				// draining check while a drain was being processed must not
				// park: nothing will ever release it.
				case drained:
					r.resp <- response{err: ErrDraining}
				case r.seq < nextSeq:
					r.resp <- response{err: errStaleSeq}
				case pending[r.seq] != nil:
					r.resp <- response{err: errDupSeq}
				default:
					pending[r.seq] = r
				}
			default:
				s.apply(r, len(pending))
			}
		}
		// Release the sequenced stream as far as it is contiguous.
		for {
			r, ok := pending[nextSeq]
			if !ok {
				break
			}
			delete(pending, nextSeq)
			nextSeq++
			s.apply(r, len(pending))
		}
		// A drain flushes whatever the reorder buffer still holds — in
		// sequence order, gaps notwithstanding — then finishes the machine.
		for _, d := range drains {
			if len(pending) > 0 {
				seqs := make([]uint64, 0, len(pending))
				for q := range pending {
					seqs = append(seqs, q)
				}
				sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
				for _, q := range seqs {
					s.apply(pending[q], 0)
					delete(pending, q)
				}
				nextSeq = seqs[len(seqs)-1] + 1
			}
			final, err := s.m.Finish()
			drained = true
			d.resp <- response{final: final, err: err}
		}
	}
}

// clampBatch clamps backward virtual times to the machine's current
// position, the documented "clamped forward" semantics of Place/ExitVM/
// Tick. The machine clamps again at apply time, so this is not about the
// effective event time — it is about ordering: orderBatch sorts on at, and
// an unclamped stale timestamp would sort its request ahead of same-batch
// events it actually applies after (a backward placement slipping in front
// of an exit, inverting the canonical exits-before-places order at their
// shared effective time).
func clampBatch(batch []*request, now time.Duration) {
	for _, r := range batch {
		if mutating(r.kind) && r.at < now {
			r.at = now
		}
	}
}

// orderBatch sorts one admission batch canonically: virtual time, then
// kind (exits before placements before ticks, reads first at time zero,
// drains last), then VM ID, then sequence number. Sequenced requests are
// re-ordered again by the reorder buffer; this sort makes the unsequenced
// path deterministic per batch.
func orderBatch(batch []*request) {
	sort.SliceStable(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		at, bt := sortTime(a), sortTime(b)
		if at != bt {
			return at < bt
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.id != b.id {
			return a.id < b.id
		}
		if a.rec.ID != b.rec.ID {
			return a.rec.ID < b.rec.ID
		}
		return a.seq < b.seq
	})
}

// sortTime positions non-event requests on the batch's time axis: reads
// observe the state before the batch's writes, drains run after them.
func sortTime(r *request) time.Duration {
	switch r.kind {
	case reqSnapshot, reqStats:
		return -1
	case reqDrain:
		return 1<<62 - 1
	default:
		return r.at
	}
}

// apply executes one request against the machine and responds.
func (s *Server) apply(r *request, pendingSeq int) {
	start := time.Now()
	var resp response
	switch r.kind {
	case reqSnapshot:
		resp.sample = metrics.Snapshot(s.m.Pool(), s.m.Now())
	case reqStats:
		st := s.statsNow(pendingSeq)
		resp.stats = &st
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

// statsNow assembles the Stats payload on the loop goroutine.
func (s *Server) statsNow(pendingSeq int) Stats {
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
		Pending:    pendingSeq,
		Draining:   s.draining.Load(),
		Latency:    s.lat.Stats(time.Since(s.started)),
	}
	if mc, ok := s.cfg.Policy.(modelCaller); ok {
		st.ModelCalls = mc.ModelCalls()
	}
	st.Memo = s.cfg.memoStats()
	st.SLO = s.m.SLOSummary()
	return st
}
