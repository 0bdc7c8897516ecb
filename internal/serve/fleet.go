package serve

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/metrics"
	"lava/internal/ptrace"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// FleetConfig configures a Fleet: the single-server Config every cell is
// built from, plus the federation dimensions. The embedded geometry
// describes the whole federation; Hosts is the total, split across cells
// exactly as cell.SplitHosts does for offline sharding, which is what makes
// a served fleet comparable — byte-for-byte — to cell.PlanCells + per-cell
// sim.Run. Each cell's Config is a copy of the embedded one with its own
// pool name and host count (see cellConfig), so a per-cell setting added to
// Config reaches fleet cells without being spelled out here. What a fleet
// reads differently:
//
//   - Horizon is the federation's, not a cell's: every cell measures to it
//     (FromTrace sets the trace's common End()), because a cell's own last
//     exit is something no front-end can know in advance.
//   - Policy and Injectors are per event loop and come from the NewPolicy and
//     NewInjectors factories; values set on the embedded Config are ignored.
//   - TraceK/TraceCap arm one decision ring per cell (there is no useful
//     global interleaving — cells are independent event loops), queryable via
//     /trace?cell=N or rolled up by /trace. TraceOut is ignored: per-cell
//     streams would interleave nondeterministically in one writer.
//   - SLO enables the fleet's front-door admission gate: every placement is
//     charged against its class's token bucket under the routing lock, at its
//     global sequencing turn, before any routing state moves — so the
//     admit/reject stream is a pure function of the sequenced request order
//     and the offline script runner reproduces it exactly. Rejections consume
//     their global routing turn (later sequence numbers never park behind
//     them) but no cell sequence slot. Cells run with tracking-only SLO
//     configs behind the gate, so per-class lifecycle counts roll up without
//     double admission control.
type FleetConfig struct {
	Config

	// Cells is the number of independent event loops (>= 1). Each owns its
	// own pool and policy and runs on its own goroutine, so a fleet is
	// parallel across cores in a way a single Server cannot be.
	Cells int

	// Router picks how placements map to cells: "round-robin",
	// "feature-hash" or "least-utilized" (cell.RouterKinds); empty means
	// feature-hash. All three run on the one cell.Ledger that cell.Shard
	// walks offline, so a replayed trace routes byte-identically online and
	// offline under any of them; they differ from an offline sharding only
	// for live traffic whose exits are not the trace's (least-utilized
	// releases a commitment when the exit actually arrives).
	Router string

	// NewPolicy builds the policy instance for one cell. Policies carry
	// mutable caches and must never be shared across event loops, hence a
	// factory rather than a value.
	NewPolicy func(cellIdx int) (scheduler.Policy, error)

	// NewInjectors builds the injector set for one cell (e.g. a scenario
	// spec's per-cell injectors). Like NewPolicy it is a factory, not a
	// value: injectors carry per-cell RNG state and must never be shared
	// across event loops. Cells created later by SplitCell call it with
	// their new index. Nil means no injectors.
	NewInjectors func(cellIdx int) []sim.Injector
}

// FleetFromTrace derives the federation geometry from a trace header, with
// the trace's measurement end as every cell's horizon (the sharded oracle's
// equivalent: cell.Shard stamps the same End() on every shard).
func FleetFromTrace(tr *trace.Trace) FleetConfig {
	return FleetConfig{Config: FromTrace(tr)}
}

// Fleet federates N per-cell Servers behind one front-end with the same
// HTTP surface as a single Server. Placements are routed to cells; exits
// follow the VM they name; ticks visit every live cell; stats and drains
// roll up.
//
// Sequenced streams survive routing: the front-end holds a global reorder
// stage that admits sequence numbers strictly in order, routes each request
// under the routing lock, stamps it with the target cell's own contiguous
// sequence number, and releases it. Dispatch to the cells is concurrent —
// per-cell reorder buffers restore each cell's stream — so a replay fanned
// across connections runs the cells genuinely in parallel while every cell
// still sees exactly the event sequence offline sharding would hand it.
type Fleet struct {
	cfg    FleetConfig
	policy string // policy name, for stats/drain payloads

	draining atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// Sequencer, topology and cell set (all under mu; elasticity ops grow
	// cells and cellSeq, so readers snapshot them under the lock).
	topo      *topology
	cells     []*Server
	nextSeq   uint64         // the global sequence number admitted next
	parked    map[uint64]int // waiter count per not-yet-admitted sequence
	inflight  int            // admitted requests not yet answered by their cell
	cellSeq   []uint64       // last per-cell sequence number issued
	closed    bool
	flushed   bool // a drain flushed the sequencer: nothing may park anymore
	drainBusy bool
	finalSet  bool
	finalRoll *cell.Rollup
	finalErr  error
}

// NewFleet builds and starts a fleet: N cells, N event loops.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	f := &Fleet{
		cfg:     cfg,
		nextSeq: 1,
		parked:  make(map[uint64]int),
	}
	f.cond = sync.NewCond(&f.mu)
	var err error
	if f.topo, err = fleetTopology(&f.cfg, f.addCellLocked); err != nil {
		f.Close()
		return nil, err
	}
	f.policy = f.cells[0].cfg.Policy.Name()
	return f, nil
}

// addCellLocked builds and starts the Server of cell idx and appends it to
// the cell set: the topology's grow hook, called for the original cells and,
// under the fleet mutex, for every cell a split carves out.
func (f *Fleet) addCellLocked(idx, hosts int) error {
	cc, err := cellConfig(&f.cfg, idx, hosts)
	if err != nil {
		return err
	}
	s, err := New(cc)
	if err != nil {
		return err
	}
	f.cells = append(f.cells, s)
	f.cellSeq = append(f.cellSeq, 0)
	return nil
}

// RouterName reports the active routing discipline.
func (f *Fleet) RouterName() string { return f.topo.Kind }

// Cells reports the number of cells, including retired ones.
func (f *Fleet) Cells() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cells)
}

// snapshotCells copies the cell set and retirement flags under the lock;
// elasticity ops may grow or retire cells at any moment.
func (f *Fleet) snapshotCells() (cells []*Server, retired []bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Server(nil), f.cells...), append([]bool(nil), f.topo.retired...)
}

// Close stops every cell's event loop and wakes all parked waiters with
// ErrClosed. Close does not drain; call Drain first for a graceful finish.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	cells := append([]*Server(nil), f.cells...)
	f.mu.Unlock()
	for _, s := range cells {
		s.Close()
	}
}

// enterSeqLocked blocks (releasing the lock while parked) until seq is the
// next global sequence number; seq 0 is unsequenced and never parks. On nil
// return the caller still holds the lock and, for seq > 0, owns the routing
// turn: it must consume it (see Do) before unlocking.
func (f *Fleet) enterSeqLocked(seq uint64) error {
	for seq > f.nextSeq && !f.closed && !f.flushed {
		f.parked[seq]++
		f.cond.Wait()
		f.parked[seq]--
		if f.parked[seq] == 0 {
			delete(f.parked, seq)
		}
	}
	switch {
	case f.closed:
		return ErrClosed
	case seq == 0:
		return nil
	case f.flushed:
		// A drain already flushed the sequencer; nothing may enter anymore
		// (mirrors the per-cell loop's post-drain rejection).
		return ErrDraining
	case seq < f.nextSeq:
		if f.draining.Load() {
			// The drain's flush jumped the cursor past this sequence while
			// the request was in flight: it was never processed, so
			// reporting it stale ("already processed") would lie. Draining
			// is the truthful answer, exactly as for post-flush arrivals.
			return ErrDraining
		}
		return errStaleSeq
	}
	return nil
}

// Do executes one fleet operation: the single online path of all ten op
// kinds. seq > 0 enrolls the op in the fleet-wide strictly ordered stream:
// Do parks until it is the op's turn, then — under the fleet mutex — plans
// the op against the topology ledger, stamps every step with its cell's
// next contiguous sequence number and releases the turn. The steps are
// dispatched without the lock and all at once (see runSteps: a fleet tick
// costs its slowest cell, not the sum); requests racing them to the same
// cells order correctly through the per-cell reorder buffers, so an admin
// op is just another citizen of the sequenced stream and every cell sees
// exactly the event sequence RunScriptOffline would hand it.
//
// The turn is consumed even when the ledger refuses the op (no routable
// cell, a front-door rejection, a retired target): later sequence numbers
// must never park behind a failed one. A refused op takes no cell sequence
// number.
func (f *Fleet) Do(op Op, seq uint64) (OpResult, error) {
	if f.draining.Load() {
		return OpResult{}, ErrDraining
	}
	f.mu.Lock()
	if err := f.enterSeqLocked(seq); err != nil {
		f.mu.Unlock()
		return OpResult{}, err
	}
	var buf [1]*request
	steps, res, err := f.topo.plan(&op, buf[:0])
	cells := f.cells // cells only ever append: the prefix seen here is stable
	if seq > 0 {
		for _, r := range steps {
			f.cellSeq[r.cell]++
			r.seq = f.cellSeq[r.cell]
		}
		// The op counts as in flight until its last step is answered; a
		// fleet drain waits for that before it drains the cells.
		f.nextSeq++
		f.inflight++
		f.cond.Broadcast()
	}
	f.mu.Unlock()

	if err == nil {
		err = runSteps(op.Kind, steps, &res, func(r *request) {
			r.resp = make(chan response, 1)
			if err := cells[r.cell].enqueue(r); err != nil {
				r.resp <- response{err: err}
			}
		}, func(r *request) response { return cells[r.cell].await(r) })
	}
	if seq > 0 {
		f.mu.Lock()
		f.inflight--
		f.cond.Broadcast()
		f.mu.Unlock()
	}
	return res, err
}

// Place routes one VM placement to a cell. Semantics match Server.Place;
// seq > 0 enrolls the request in the fleet-wide strictly ordered stream.
func (f *Fleet) Place(rec trace.Record, at time.Duration, seq uint64) (host cluster.HostID, placed bool, err error) {
	res, err := f.Do(Op{Kind: OpPlace, Rec: rec, At: at}, seq)
	return res.Host, res.Placed, err
}

// ExitVM routes a VM exit to the cell that admitted the VM. Exits of VMs
// the fleet never routed report removed=false without touching any cell.
func (f *Fleet) ExitVM(id cluster.VMID, at time.Duration, seq uint64) (removed bool, err error) {
	res, err := f.Do(Op{Kind: OpExit, VM: id, At: at}, seq)
	return res.Removed, err
}

// Tick advances every live cell's virtual time to at and returns the
// furthest time reached. A sequenced tick consumes one fleet sequence number
// and one per-cell sequence number in every live cell, so it orders
// correctly against the sequenced placement stream in each of them.
func (f *Fleet) Tick(at time.Duration, seq uint64) (now time.Duration, err error) {
	res, err := f.Do(Op{Kind: OpTick, At: at}, seq)
	return res.Now, err
}

// fanOut runs fn for cells 0..n-1 concurrently and returns the joined
// errors (in cell order).
func fanOut(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// FleetSnapshot is the /snapshot payload of a fleet: one read-only sample
// per cell, taken concurrently at each cell's current virtual time.
type FleetSnapshot struct {
	Cells []metrics.Sample `json:"cells"`
}

// Snapshot measures every cell without advancing time. Retired cells
// answer too — their pools are frozen at merge time.
func (f *Fleet) Snapshot() (FleetSnapshot, error) {
	cells, _ := f.snapshotCells()
	out := FleetSnapshot{Cells: make([]metrics.Sample, len(cells))}
	err := fanOut(len(cells), func(c int) error {
		s, err := cells[c].Snapshot()
		out.Cells[c] = s
		return err
	})
	return out, err
}

// Stats gathers every cell's leaf concurrently and rolls them up into the
// node (the Stats type says what sums and what excludes retired cells).
func (f *Fleet) Stats() (Stats, error) {
	cells, retired := f.snapshotCells()
	st := Stats{
		Pool:      f.cfg.PoolName,
		Policy:    f.policy,
		Router:    f.RouterName(),
		CellCount: len(cells),
		Draining:  f.draining.Load(),
		CellStats: make([]Stats, len(cells)),
	}
	err := fanOut(len(cells), func(c int) error {
		s, err := cells[c].Stats()
		st.CellStats[c] = s
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	for c, s := range st.CellStats {
		if retired[c] {
			st.Retired = append(st.Retired, c)
		} else {
			st.Hosts += s.Hosts
			st.VMs += s.VMs
			st.NowNS = max(st.NowNS, s.NowNS)
			st.HorizonNS = s.HorizonNS // one horizon, shared by every cell
		}
		st.Placements += s.Placements
		st.Exits += s.Exits
		st.Failed += s.Failed
		st.ModelCalls += s.ModelCalls
		st.QueueDepth += s.QueueDepth
		st.Pending += s.Pending
	}
	var gateCounts map[string]*slo.Counts
	f.mu.Lock()
	for _, n := range f.parked {
		st.Pending += n
	}
	if f.topo.gate != nil {
		gateCounts = f.topo.gate.Counts()
	}
	f.mu.Unlock()
	if gateCounts != nil {
		subs := make([]*slo.Summary, 0, len(st.CellStats))
		for _, cs := range st.CellStats {
			subs = append(subs, cs.SLO)
		}
		st.SLO = slo.MergeFrontDoor(gateCounts, subs, 0, 0, false)
	}
	st.Memo = f.cfg.memoStats()
	return st, nil
}

// Drain gracefully finishes the federation: new mutating work is rejected,
// the global sequencer is flushed — parked requests released strictly in
// ascending sequence order, gaps notwithstanding — every in-flight dispatch
// is allowed to land, and then every cell drains concurrently. The per-cell
// results roll up through cell.RollUp into the fleet-level report.
// Idempotent: later calls return the same rollup.
func (f *Fleet) Drain() (*cell.Rollup, error) {
	f.draining.Store(true)
	f.mu.Lock()
	for f.drainBusy && !f.finalSet && !f.closed {
		f.cond.Wait()
	}
	if f.finalSet {
		roll, err := f.finalRoll, f.finalErr
		f.mu.Unlock()
		return roll, err
	}
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.drainBusy = true
	// Flush the sequencer: open the gate for the lowest parked sequence,
	// let its waiter route (advancing nextSeq), repeat; then wait out the
	// dispatches. Releasing one gap at a time keeps the flushed requests
	// routing in ascending sequence order, exactly like the per-cell
	// reorder buffer's gap flush.
	for !f.closed {
		if len(f.parked) > 0 {
			min := uint64(0)
			for q := range f.parked {
				if min == 0 || q < min {
					min = q
				}
			}
			if min > f.nextSeq {
				f.nextSeq = min
			}
			f.cond.Broadcast()
			f.cond.Wait()
			continue
		}
		if f.inflight > 0 {
			f.cond.Wait()
			continue
		}
		break
	}
	f.flushed = true
	f.cond.Broadcast()
	closed := f.closed
	cells := append([]*Server(nil), f.cells...)
	hosts := append([]int(nil), f.topo.Hosts...)
	f.mu.Unlock()
	if closed {
		f.mu.Lock()
		f.drainBusy = false
		f.cond.Broadcast()
		f.mu.Unlock()
		return nil, ErrClosed
	}

	results := make([]*sim.Result, len(cells))
	err := fanOut(len(cells), func(c int) error {
		// Retired cells drain like any other: Server.Drain is idempotent
		// and their machines advance from merge time to the horizon here.
		res, err := cells[c].Drain()
		results[c] = res
		return err
	})
	var roll *cell.Rollup
	if err == nil {
		roll, err = cell.RollUp(f.RouterName(), hosts, results)
	}
	f.mu.Lock()
	if err == nil {
		// Fold the front-door gate's admission counters into the rollup —
		// the same attachment RunScriptOffline applies, so the drain report
		// stays byte-identical between the arms. The sequencer is flushed
		// and no dispatch is in flight: the counters are final.
		attachFrontDoorLocked(f.topo, roll)
	}
	f.finalRoll, f.finalErr, f.finalSet = roll, err, true
	f.drainBusy = false
	f.cond.Broadcast()
	f.mu.Unlock()
	return roll, err
}

// Handler returns the fleet's HTTP API: the route table of routes — a
// single Server's endpoints with node payloads — plus the /admin elasticity
// surface, since a Fleet can Do.
func (f *Fleet) Handler() http.Handler { return routes(f) }

func (f *Fleet) snapshot() (any, error) { return f.Snapshot() }

func (f *Fleet) drainReport() (DrainResponse, error) {
	roll, err := f.Drain()
	if err != nil {
		return DrainResponse{}, err
	}
	return FleetReportOf(f.cfg.PoolName, f.policy, roll), nil
}

// tracers returns every cell's decision recorder, in cell order (nil
// entries when tracing is disabled).
func (f *Fleet) tracers() ([]*ptrace.Recorder, bool) {
	cells, _ := f.snapshotCells()
	recs := make([]*ptrace.Recorder, len(cells))
	for c, s := range cells {
		recs[c] = s.tracer
	}
	return recs, true
}
