package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
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
// pool name and host count (see addCellLocked), so a per-cell setting added
// to Config reaches fleet cells without being spelled out here. What a
// fleet reads differently:
//
//   - Horizon is the federation's, not a cell's: every cell measures to it
//     (FromTrace sets the trace's common End()), because a cell's own last
//     exit is something no front-end can know in advance.
//   - Policy and Injectors are per cell and come from the NewPolicy and
//     NewInjectors factories; values set on the embedded Config are ignored.
//   - TraceK/TraceCap arm one decision ring per cell (there is no useful
//     global interleaving — cells apply independently), queryable via
//     /trace?cell=N or rolled up by /trace. TraceOut is ignored: per-cell
//     streams would interleave nondeterministically in one writer.
//   - SLO enables the fleet's front-door admission gate: every placement is
//     charged against its class's token bucket under the routing lock, at its
//     global sequencing turn, before any routing state moves — so the
//     admit/reject stream is a pure function of the sequenced request order
//     and RunScriptOffline reproduces it exactly. Rejections consume
//     their global routing turn (later sequence numbers never park behind
//     them) and reach no cell. Cells run with tracking-only SLO
//     configs behind the gate, so per-class lifecycle counts roll up without
//     double admission control.
type FleetConfig struct {
	Config

	// Cells is the number of cells (>= 1). Each is a Server with its own
	// pool, policy and turns; different cells apply concurrently, on the
	// requests' goroutines, so a fleet is parallel across cores in a way a
	// single Server cannot be.
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
	// mutable caches and must never be shared across cells, hence a factory
	// rather than a value.
	NewPolicy func(cellIdx int) (scheduler.Policy, error)

	// NewInjectors builds the injector set for one cell (e.g. a scenario
	// spec's per-cell injectors). Like NewPolicy it is a factory, not a
	// value: injectors carry per-cell RNG state and must never be shared
	// across cells. Cells created later by SplitCell call it with
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
// Sequenced streams survive routing: the front door is the one sequencer a
// single Server runs too. At its turn an op is planned under the routing
// lock and every step draws a ticket from its cell before the turn passes;
// after it, each step applies in its ticket's turn. So each cell applies its
// slice of the stream in front-door order — while the cells apply in
// parallel, every cell sees exactly the event sequence offline sharding
// would hand it.
type Fleet struct {
	cfg    FleetConfig
	policy string     // policy name, for stats/drain payloads
	order  *sequencer // the front door

	// Topology and cell set: elasticity ops grow cells, so readers snapshot
	// them under mu.
	mu    sync.Mutex
	topo  *topology
	cells []*Server

	inflight sync.WaitGroup // ops past the front door whose steps still run

	drain     sync.Once
	finalRoll *cell.Rollup
	finalErr  error
}

// NewFleet builds a fleet of N cells. Like New it starts no goroutine.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("serve: fleet needs at least one cell, got %d", cfg.Cells)
	}
	if cfg.Hosts < cfg.Cells {
		return nil, fmt.Errorf("serve: %d hosts cannot form %d cells", cfg.Hosts, cfg.Cells)
	}
	if cfg.NewPolicy == nil {
		return nil, errors.New("serve: fleet config needs a policy factory")
	}
	if cfg.PoolName == "" {
		cfg.PoolName = "pool"
	}
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	cfg.SLO = cfg.SLO.Normalize()
	hosts := cell.SplitHosts(cfg.Hosts, cfg.Cells)
	topo, err := newTopology(cfg.Router, hosts)
	if err != nil {
		return nil, err
	}
	topo.gate = slo.NewGate(cfg.SLO)
	f := &Fleet{cfg: cfg, order: newSequencer(), topo: topo}
	topo.grow = f.addCellLocked
	for i, h := range hosts {
		if err := f.addCellLocked(i, h); err != nil {
			f.Close()
			return nil, err
		}
	}
	f.policy = f.cells[0].cfg.Policy.Name()
	return f, nil
}

// addCellLocked builds the Server of cell idx, hosts wide, and appends it to
// the cell set: the topology's grow hook, called for the original cells and,
// under the fleet mutex, for every cell a split carves out. The cell's
// Config is the fleet's embedded one with the cell's own name and size, and
// a fresh policy and injectors from the fleet's factories.
func (f *Fleet) addCellLocked(idx, hosts int) error {
	pol, err := f.cfg.NewPolicy(idx)
	if err == nil && pol == nil {
		err = errors.New("serve: fleet policy factory returned nil")
	}
	if err != nil {
		return fmt.Errorf("serve: fleet cell %d: %w", idx, err)
	}
	cc := f.cfg.Config
	// The offline sharding (cell.Shard) names cells the same way; keeping
	// the names aligned keeps drain payloads diffable.
	cc.PoolName = fmt.Sprintf("%s/cell-%d", f.cfg.PoolName, idx)
	cc.Hosts = hosts
	cc.Policy = pol
	cc.Injectors = nil
	if f.cfg.NewInjectors != nil {
		cc.Injectors = f.cfg.NewInjectors(idx)
	}
	cc.TraceOut = nil // see FleetConfig: one writer cannot take N cells' streams
	cc.Memo = nil     // the wrapper is fleet-wide: the node reports it, once
	cc.SLO = cellSLO(&f.cfg)
	s, err := New(cc)
	if err != nil {
		return fmt.Errorf("serve: fleet cell %d: %w", idx, err)
	}
	f.cells = append(f.cells, s)
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

// snapshotCells copies the cell set and the cells' ledger weights (0: the
// cell retired) under the lock; elasticity ops may grow or retire cells at
// any moment.
func (f *Fleet) snapshotCells() (cells []*Server, hosts []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Server(nil), f.cells...), append([]int(nil), f.topo.Hosts...)
}

// Close closes the front door and every cell: parked and later requests are
// answered with ErrClosed, and Close returns once every cell's current apply
// is done. Close does not drain; call Drain first for a graceful finish.
func (f *Fleet) Close() {
	f.order.close()
	// No turn runs anymore, so the cell set — which a split may have grown
	// meanwhile — is final.
	for _, s := range f.cells {
		s.Close()
	}
}

// Do executes one fleet operation: the single path of all ten op kinds,
// online and in RunScriptOffline alike. At the op's front-door turn (seq >
// 0: its place in the fleet-wide strictly ordered stream; seq 0: at once)
// Do plans it against the topology ledger under the fleet mutex and draws
// every step a ticket from its cell, in plan order, before the turn passes
// — so every cell sees its slice of the stream in front-door order, however
// concurrently the ops arrived, and an admin op is just another citizen of
// the stream. The steps then apply in their cells' turns
// (see runSteps: a fleet tick costs its slowest cell, not the sum).
//
// The turn is consumed even when the ledger refuses the op (no routable
// cell, a front-door rejection, a retired target): later sequence numbers
// must never park behind a failed one.
func (f *Fleet) Do(op Op, seq uint64) (OpResult, error) {
	if err := f.order.enter(seq); err != nil {
		return OpResult{}, err
	}
	var buf [1]request
	f.mu.Lock()
	steps, res, err := f.topo.plan(&op, buf[:0])
	cells := f.cells // cells only ever append: the prefix seen here is stable
	f.mu.Unlock()
	if err != nil {
		f.order.leave(seq)
		return res, err
	}
	for i := range steps {
		steps[i].seq = cells[steps[i].cell].order.ticket()
	}
	f.inflight.Add(1)
	defer f.inflight.Done()
	f.order.leave(seq)
	err = runSteps(op.Kind, steps, &res, cells)
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
// furthest time reached. A sequenced tick takes one fleet turn and draws a
// ticket from every live cell during it, so it orders correctly against the
// sequenced placement stream in each of them.
func (f *Fleet) Tick(at time.Duration, seq uint64) (now time.Duration, err error) {
	res, err := f.Do(Op{Kind: OpTick, At: at}, seq)
	return res.Now, err
}

// fanOut runs fn for cells 0..n-1 concurrently — cell 0 on the calling
// goroutine — and returns the joined errors (in cell order).
func fanOut(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 1; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	if n > 0 {
		errs[0] = fn(0)
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
	cells, hosts := f.snapshotCells()
	st := Stats{
		Pool:      f.cfg.PoolName,
		Policy:    f.policy,
		Router:    f.RouterName(),
		CellCount: len(cells),
		Draining:  f.order.draining.Load(),
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
		if hosts[c] == 0 {
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
	}
	st.Pending = f.order.pending() // the front door's; the cell leaves carry their own
	var gateCounts map[string]*slo.Counts
	f.mu.Lock()
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
// the front door is flushed — parked requests released strictly in
// ascending sequence order, gaps notwithstanding, each drawing its cells'
// tickets — and once every admitted op's steps have applied, every cell
// drains concurrently. The per-cell results roll up through cell.RollUp into
// the fleet-level report. Idempotent: later calls return the same rollup.
func (f *Fleet) Drain() (*cell.Rollup, error) {
	f.drain.Do(func() { f.finalRoll, f.finalErr = f.drainCells() })
	return f.finalRoll, f.finalErr
}

// drainCells is Drain's one run. Once the front door is flushed no turn runs
// anymore, so the cell set, the topology and the gate's counters are final
// and are read without the fleet mutex; once the admitted ops are done no
// cell ticket is outstanding.
func (f *Fleet) drainCells() (*cell.Rollup, error) {
	f.order.flush()
	f.inflight.Wait()
	cells := f.cells
	results := make([]*sim.Result, len(cells))
	err := fanOut(len(cells), func(c int) error {
		// Retired cells drain like any other: Server.Drain is idempotent
		// and their machines advance from merge time to the horizon here.
		res, err := cells[c].Drain()
		results[c] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	roll, err := cell.RollUp(f.RouterName(), f.topo.Hosts, results)
	if err != nil {
		return nil, err
	}
	// Fold the front-door gate's admission counters into the rollup:
	// admitted/rejected from the front door, per-class lifecycle counts from
	// the cells, fairness and fitness recomputed from the merged totals and
	// the rollup's packing aggregates.
	if f.topo.gate != nil {
		roll.SLO = slo.MergeFrontDoor(f.topo.gate.Counts(), []*slo.Summary{roll.SLO},
			roll.AvgPackingDensity, roll.AvgEmptyToFree, true)
	}
	return roll, nil
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
