package serve

import (
	"errors"
	"fmt"
	"io"
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
// offline run; FromTrace fills them from a trace. A server runs the
// simulator's clock (simtime.TickEvery, simtime.SampleEvery).
type Config struct {
	PoolName  string
	Hosts     int
	HostShape resources.Vector

	// WarmUp is excluded from the final aggregates (Appendix F), exactly as
	// a trace's warm-up is offline.
	WarmUp time.Duration

	// Horizon is the virtual-time measurement end: /drain advances to it
	// before computing aggregates. For replay parity set it to the trace's
	// End(); zero means "aggregate up to the last time reached".
	Horizon time.Duration

	// Policy makes the placement decisions. The server owns it: per the
	// scheduler package's contract, policies carry mutable caches and must
	// not be shared with concurrent runs.
	Policy scheduler.Policy

	// Injectors run on every virtual tick, as in sim.Config.
	Injectors []sim.Injector

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

// reqKind enumerates the mutating requests a machine applies.
type reqKind uint8

const (
	reqExit reqKind = iota
	reqPlace
	reqTick
	reqAddHosts
	reqRemoveHost
	reqRemoveTop // a split's removal: the cell's highest-ID host when it applies
	reqMigrateOut
	reqMigrateIn
)

// request is one mutating request, and — with cell set — one step of a fleet
// operation's plan (see topology.plan).
type request struct {
	kind reqKind
	cell int            // fleet steps: the cell this request is for
	seq  uint64         // >0: its turn (a client's sequence number, a fleet step's cell ticket)
	at   time.Duration  // virtual time of the event
	rec  trace.Record   // reqPlace
	id   cluster.VMID   // reqExit, reqMigrateOut
	n    int            // reqAddHosts
	hid  cluster.HostID // reqRemoveHost
	vm   *cluster.VM    // reqMigrateIn (nil: sequencing no-op)
}

// response is the outcome of one applied request.
type response struct {
	err     error
	host    cluster.HostID // reqPlace, reqMigrateIn
	placed  bool           // reqPlace, reqMigrateIn
	removed bool           // reqExit
	vm      *cluster.VM    // reqMigrateOut (nil: VM was not running)
	now     time.Duration  // reqTick
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
	QueueDepth int                  `json:"queue_depth"` // Deprecated: there is no admission queue; reads 0
	Pending    int                  `json:"pending_seq"` // requests parked at the sequencer (a cell: steps waiting for their ticket's turn)
	Draining   bool                 `json:"draining"`
	Latency    *runner.ServingStats `json:"latency,omitempty"` // apply-side; leaves only
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

// Server is the online placement service: one pool, one policy, one
// sequencer. Each mutating request is applied to the machine on the caller's
// goroutine while it holds its sequencer turn, so turn order is apply order;
// reads take the same lock without a turn. Create with New; drive over HTTP
// via Handler or in-process via the typed methods the handlers use.
type Server struct {
	cfg    Config
	m      *sim.Machine     // touched only under order's lock
	tracer *ptrace.Recorder // nil: tracing disabled
	order  *sequencer       // the client stream's (a fleet cell's: its tickets)

	// lat records per-request apply latency, under order's lock. Client-side
	// round-trip latency is the load generator's to measure.
	lat     runner.LatencyHist
	started time.Time
}

// newMachine validates cfg, fills its defaults and builds the engine it
// describes: a sim.Machine over a header-only trace carrying the geometry,
// plus the decision recorder when tracing is on. New wraps the machine in a
// sequencer; the package's tests also drive it bare, through applyTo, as
// the sequential reference a fleet is diffed against.
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
		Trace:     ht,
		Policy:    cfg.Policy,
		Injectors: cfg.Injectors,
		Tracer:    tracer,
		SLO:       cfg.SLO,
	})
	return m, tracer, err
}

// New builds a server. It starts no goroutine: every request runs on its
// caller's.
func New(cfg Config) (*Server, error) {
	m, tracer, err := newMachine(&cfg)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, m: m, tracer: tracer, order: newSequencer(), started: time.Now()}, nil
}

// Close refuses all later work: parked and later requests are answered with
// ErrClosed. It returns once the request applying now (if any) is done.
// Close does not drain; call Drain first for a graceful shutdown.
func (s *Server) Close() { s.order.close() }

// submit applies one mutating request to the machine during its sequencer
// turn, on the caller's goroutine.
func (s *Server) submit(r *request) (resp response) {
	if resp.err = s.order.enter(r.seq); resp.err != nil {
		return resp
	}
	defer s.leave(r.seq, &resp.err)
	start := time.Now()
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
	return resp
}

// locked runs fn under the sequencer's lock without a turn: the reads and
// the drain's Finish.
func (s *Server) locked(fn func()) (err error) {
	if err = s.order.lock(); err != nil {
		return err
	}
	defer s.leave(0, &err)
	fn()
	return nil
}

// leave ends the turn of seq (0: an unsequenced turn or a lock). Deferred by
// every holder, it also catches the holder's panic: the server closes before
// the lock is let go, so no later turn touches a machine left mid-update and
// parked and later requests get ErrClosed, and the panic becomes the
// holder's error. In a fleet only that cell closes.
func (s *Server) leave(seq uint64, err *error) {
	if p := recover(); p != nil {
		s.order.closeLocked()
		*err = fmt.Errorf("serve: %s: apply panicked: %v", s.cfg.PoolName, p)
	}
	s.order.leave(seq)
}

// Place schedules one VM at virtual time at (clamped forward to the
// server's current time). seq > 0 enrolls the request in the strictly
// ordered client stream. The returned host is nil when no feasible host
// exists — a failed placement, not an error.
func (s *Server) Place(rec trace.Record, at time.Duration, seq uint64) (host cluster.HostID, placed bool, err error) {
	resp := s.submit(&request{kind: reqPlace, rec: rec, at: at, seq: seq})
	return resp.host, resp.placed, resp.err
}

// ExitVM removes a VM at virtual time at. removed is false for VMs the
// server never placed (e.g. their placement failed for capacity).
func (s *Server) ExitVM(id cluster.VMID, at time.Duration, seq uint64) (removed bool, err error) {
	resp := s.submit(&request{kind: reqExit, id: id, at: at, seq: seq})
	return resp.removed, resp.err
}

// Tick advances virtual time to at, firing due samples and policy ticks.
func (s *Server) Tick(at time.Duration, seq uint64) (now time.Duration, err error) {
	resp := s.submit(&request{kind: reqTick, at: at, seq: seq})
	return resp.now, resp.err
}

// Snapshot measures the pool at the current virtual time without advancing
// it.
func (s *Server) Snapshot() (sample metrics.Sample, err error) {
	err = s.locked(func() { sample = metrics.Snapshot(s.m.Pool(), s.m.Now()) })
	return sample, err
}

// Stats reports serving counters.
func (s *Server) Stats() (st Stats, err error) {
	err = s.locked(func() { st = s.statsNow() })
	return st, err
}

// Tracer returns the server's decision recorder, nil when tracing is
// disabled (Config.TraceK == 0). The recorder is internally synchronized:
// queries are safe while a request records.
func (s *Server) Tracer() *ptrace.Recorder { return s.tracer }

// Drain gracefully finishes the run: rejects new mutating work, processes
// everything already admitted (the sequencer's flush lets its parked
// requests take their turns first), advances to the horizon, and returns the
// final aggregates. Idempotent — later calls return the same result.
func (s *Server) Drain() (res *sim.Result, err error) {
	s.order.flush()
	if lerr := s.locked(func() { res, err = s.m.Finish() }); lerr != nil {
		return nil, lerr
	}
	return res, err
}

// applyTo executes one mutating request against a machine. It is the single
// request→sim.Machine mapping: a Server calls it during the request's turn.
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
	case reqRemoveHost, reqRemoveTop:
		id := r.hid
		if hosts := m.Pool().Hosts(); r.kind == reqRemoveTop && len(hosts) > 0 {
			id = hosts[len(hosts)-1].ID
		}
		resp.err = m.RemoveHost(id, r.at)
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

// statsNow assembles the Stats payload under the sequencer's lock.
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
		Pending:    len(s.order.parked),
		Draining:   s.order.draining.Load(),
		Latency:    s.lat.Stats(time.Since(s.started)),
		ModelCalls: s.m.ModelCalls(),
	}
	st.Memo = s.cfg.memoStats()
	st.SLO = s.m.SLOSummary()
	return st
}
