package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/runner"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// ErrNoRoutableCell is returned by placements when every cell is drained or
// retired. Rehydrate a cell (or split a new one) to resume admission.
var ErrNoRoutableCell = errors.New("serve: no routable cell")

// topology is the fleet's routing ledger: per-cell host counts,
// routability, commitments and the VM→cell index. It is the one piece of
// state the online front-end (Fleet, under its mutex) and the offline
// script runner (RunScriptOffline, single-threaded) share verbatim — every
// routing or elasticity decision is a pure function of this struct, which
// is what makes an online run byte-comparable to its offline script. It has
// one side effect, the grow hook: a split starts the new cell's engine from
// inside the ledger, before it commits.
//
// The ledger is updated at sequencing time, before the per-cell machines
// apply the operation, and unconditionally: a cell-level failure (say, a
// host removal refused because the host still runs VMs) surfaces as an
// error to the operator but does not roll the ledger back, so both sides
// keep identical ledgers for identical op streams. Parity guarantees
// therefore cover scripts whose operations succeed.
type topology struct {
	kind string // router kind: round-robin | feature-hash | least-utilized
	rr   int    // round-robin cursor

	hosts    []int  // per-cell host count (rollup weight; 0 once retired)
	routable []bool // cell accepts new placements
	retired  []bool // cell was merged away: terminal, weight 0

	committed []int64 // per-cell committed CPU-milli (the LU ledger)
	vmCell    map[cluster.VMID]int
	vmCPU     map[cluster.VMID]int64

	// gate is the front-door SLO admission controller (nil: admission off).
	// It lives on the topology because it is part of the same shared-ledger
	// contract: the online Fleet consults it under its mutex at each global
	// sequencing turn, the offline script runner in plain program order, so
	// both arms see the identical admit/reject stream.
	gate *slo.Gate

	// grow builds the engine of a new cell — a Server for the online fleet,
	// a bare machine for the offline runner — for the initial cells and for
	// every split. The ledger only commits a split once grow succeeded.
	grow func(idx, hosts int) error
}

// newTopology validates the router kind and builds the ledger over the
// initial cells.
func newTopology(kind string, hosts []int) (*topology, error) {
	if kind == "" {
		kind = "feature-hash"
	}
	ok := false
	for _, k := range cell.RouterKinds() {
		if k == kind {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("serve: unknown router %q", kind)
	}
	t := &topology{
		kind:      kind,
		hosts:     append([]int(nil), hosts...),
		routable:  make([]bool, len(hosts)),
		retired:   make([]bool, len(hosts)),
		committed: make([]int64, len(hosts)),
		vmCell:    make(map[cluster.VMID]int),
		vmCPU:     make(map[cluster.VMID]int64),
	}
	for i := range t.routable {
		t.routable[i] = true
	}
	return t, nil
}

// liveCell validates that c names a cell that has not been merged away.
func (t *topology) liveCell(c int) error {
	if c < 0 || c >= len(t.hosts) {
		return fmt.Errorf("serve: no cell %d (fleet has %d)", c, len(t.hosts))
	}
	if t.retired[c] {
		return fmt.Errorf("serve: cell %d is retired", c)
	}
	return nil
}

// routeCreate picks the cell for a new VM and records the decision. The
// disciplines restrict themselves to routable cells:
//
//   - round-robin advances its cursor to the next routable cell;
//   - feature-hash probes forward from hash(Feat) % cells past unroutable
//     cells, so assignments are untouched by drain/rehydrate of *other*
//     cells and shift only when the cell count itself changes;
//   - least-utilized takes the lowest committed CPU per host, ties to the
//     lowest index.
//
// With a front-door gate, admission runs first, against the record's class
// bucket at the request's virtual time: a rejection (*slo.RejectError)
// leaves every piece of routing state — cursor, ledger, commitment — and
// the gate's bucket untouched except for the class's token and counters, so
// rejected requests are invisible to placement.
func (t *topology) routeCreate(rec *trace.Record, at time.Duration) (int, error) {
	if t.gate != nil {
		cls, err := slo.ParseClass(rec.Class)
		if err != nil {
			return 0, err
		}
		if ok, retry := t.gate.Admit(cls, at); !ok {
			return 0, &slo.RejectError{Class: cls, RetryAt: retry}
		}
	}
	n := len(t.hosts)
	c := -1
	switch t.kind {
	case "round-robin":
		for i := 0; i < n; i++ {
			cand := (t.rr + i) % n
			if t.routable[cand] {
				c = cand
				t.rr = (cand + 1) % n
				break
			}
		}
	case "feature-hash":
		start := cell.FeatureHash(rec, n)
		for i := 0; i < n; i++ {
			cand := (start + i) % n
			if t.routable[cand] {
				c = cand
				break
			}
		}
	case "least-utilized":
		best := 0.0
		for i := 0; i < n; i++ {
			if !t.routable[i] || t.hosts[i] <= 0 {
				continue
			}
			score := float64(t.committed[i]) / float64(t.hosts[i])
			if c < 0 || score < best {
				c, best = i, score
			}
		}
	}
	if c < 0 {
		return 0, ErrNoRoutableCell
	}
	t.vmCell[rec.ID] = c
	t.vmCPU[rec.ID] = rec.Shape.CPUMilli
	t.committed[c] += rec.Shape.CPUMilli
	return c, nil
}

// routeExit resolves which cell holds the VM and releases its commitment.
// ok is false for VMs the fleet never routed.
func (t *topology) routeExit(id cluster.VMID) (int, bool) {
	c, ok := t.vmCell[id]
	if !ok {
		return 0, false
	}
	t.committed[c] -= t.vmCPU[id]
	delete(t.vmCell, id)
	delete(t.vmCPU, id)
	return c, true
}

// addHosts grows cell c's ledger weight by n.
func (t *topology) addHosts(c, n int) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("serve: add %d hosts", n)
	}
	t.hosts[c] += n
	return nil
}

// removeHost shrinks cell c's ledger weight by one. The last host cannot be
// removed — merge the cell away instead.
func (t *topology) removeHost(c int) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	if t.hosts[c] <= 1 {
		return fmt.Errorf("serve: cell %d: cannot remove its last host (merge the cell instead)", c)
	}
	t.hosts[c]--
	return nil
}

// setRoutable drains (false) or rehydrates (true) a cell. VMs already in a
// drained cell keep running and exiting there; only new placements avoid it.
func (t *topology) setRoutable(c int, v bool) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	t.routable[c] = v
	return nil
}

// split carves k hosts out of cell c into a new routable cell appended at
// the next index, built through grow before the ledger commits. Returns the
// new cell's index.
func (t *topology) split(c, k int) (int, error) {
	if err := t.liveCell(c); err != nil {
		return 0, err
	}
	if k < 1 || t.hosts[c]-k < 1 {
		return 0, fmt.Errorf("serve: cell %d (%d hosts): cannot split off %d", c, t.hosts[c], k)
	}
	idx := len(t.hosts)
	if err := t.grow(idx, k); err != nil {
		return 0, err
	}
	t.hosts[c] -= k
	t.hosts = append(t.hosts, k)
	t.routable = append(t.routable, true)
	t.retired = append(t.retired, false)
	t.committed = append(t.committed, 0)
	return idx, nil
}

// merge retires cell from into cell into: into absorbs from's ledger weight
// and commitments, every VM routed to from — including capacity-failed ones
// whose future exits must still resolve somewhere — is repointed at into,
// and from becomes terminal (unroutable, retired, weight 0). Returns the
// VMs to migrate, sorted by ID: the deterministic migration plan both the
// online fleet and the offline runner execute.
func (t *topology) merge(from, into int) ([]cluster.VMID, error) {
	if err := t.liveCell(from); err != nil {
		return nil, err
	}
	if err := t.liveCell(into); err != nil {
		return nil, err
	}
	if from == into {
		return nil, fmt.Errorf("serve: cell %d: merge into itself", from)
	}
	victims := make([]cluster.VMID, 0)
	for id, c := range t.vmCell {
		if c == from {
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		t.vmCell[id] = into
	}
	t.committed[into] += t.committed[from]
	t.committed[from] = 0
	t.hosts[into] += t.hosts[from]
	t.hosts[from] = 0
	t.routable[from] = false
	t.retired[from] = true
	return victims, nil
}

// rebalance plans a deterministic load shift: source is the non-retired
// cell with the highest committed CPU per host (ties to the lowest index),
// destination the routable cell with the lowest. VMs move in ascending ID
// order — min-over-map is order-independent, so the plan is identical
// however the ledger was built — until the source's score drops to the
// destination's or maxMoves is hit (maxMoves <= 0: unlimited). The ledger
// is updated move by move; the returned plan is for the machines.
func (t *topology) rebalance(maxMoves int) (src, dst int, victims []cluster.VMID) {
	src, dst = -1, -1
	var srcScore, dstScore float64
	for i := range t.hosts {
		if t.retired[i] || t.hosts[i] <= 0 {
			continue
		}
		s := float64(t.committed[i]) / float64(t.hosts[i])
		if src < 0 || s > srcScore {
			src, srcScore = i, s
		}
		if t.routable[i] && (dst < 0 || s < dstScore) {
			dst, dstScore = i, s
		}
	}
	if src < 0 || dst < 0 || src == dst {
		return -1, -1, nil
	}
	ids := make([]cluster.VMID, 0)
	for id, c := range t.vmCell {
		if c == src {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if maxMoves > 0 && len(victims) >= maxMoves {
			break
		}
		if float64(t.committed[src])/float64(t.hosts[src]) <= float64(t.committed[dst])/float64(t.hosts[dst]) {
			break
		}
		cpu := t.vmCPU[id]
		t.vmCell[id] = dst
		t.committed[src] -= cpu
		t.committed[dst] += cpu
		victims = append(victims, id)
	}
	return src, dst, victims
}

// --- operations: Op → plan → steps ------------------------------------------

// OpKind enumerates fleet operations.
type OpKind uint8

// Fleet operations. The first three mirror the request stream a client
// sends; the rest are the elasticity admin ops.
const (
	OpPlace OpKind = iota
	OpExit
	OpTick
	OpAddHosts
	OpRemoveHost
	OpDrainCell
	OpRehydrateCell
	OpSplitCell
	OpMergeCells
	OpRebalance
	numOpKinds
)

var opNames = [numOpKinds]string{"place", "exit", "tick", "add-hosts", "remove-host",
	"drain-cell", "rehydrate-cell", "split-cell", "merge-cells", "rebalance"}

// String renders the op name.
func (k OpKind) String() string {
	if k >= numOpKinds {
		return "op(?)"
	}
	return opNames[k]
}

// Op is one fleet operation: the unit of work of the live Fleet (Do) and of
// the offline reference (RunScriptOffline). A script is a sequence of Ops in
// global order: op i corresponds to fleet sequence number i+1, which is how
// the elasticity tests replay the same script online at any concurrency.
type Op struct {
	Kind OpKind
	At   time.Duration  // virtual time (place/exit/tick/admin ops)
	Rec  trace.Record   // OpPlace
	VM   cluster.VMID   // OpExit
	Cell int            // target cell; OpMergeCells: source
	Into int            // OpMergeCells: destination
	N    int            // OpAddHosts: count; OpSplitCell: hosts to carve; OpRebalance: max moves
	Host cluster.HostID // OpRemoveHost
}

// OpResult is what an executed Op reports back; each field belongs to the
// op kinds named beside it and is zero for the others.
type OpResult struct {
	Host    cluster.HostID // OpPlace: the chosen host
	Placed  bool           // OpPlace: false with no error means no feasible host
	Removed bool           // OpExit: the VM was running
	Now     time.Duration  // OpTick: the furthest cell clock reached
	NewCell int            // OpSplitCell: index of the new cell
	Moves   int            // OpRebalance: VMs migrated
}

// OpsFromTrace converts a trace's canonical event stream into a script:
// every CREATE becomes an OpPlace and every EXIT an OpExit, in event order,
// with events past the trace's measurement end dropped. The mapping matches
// Client.Replay exactly — replay sequence number i+1 corresponds to ops[i] —
// so RunScriptOffline over these ops is the offline reference for an online
// replay of the same trace.
func OpsFromTrace(tr *trace.Trace) []Op {
	end := tr.End()
	var ops []Op
	for _, ev := range tr.Events() {
		if ev.Time > end {
			break
		}
		switch ev.Kind {
		case trace.EventCreate:
			ops = append(ops, Op{Kind: OpPlace, At: ev.Time, Rec: ev.Rec})
		case trace.EventExit:
			ops = append(ops, Op{Kind: OpExit, At: ev.Time, VM: ev.Rec.ID})
		}
	}
	return ops
}

// plan is the one place that knows what an operation expands to. It
// validates op against the ledger, commits it, and appends to buf the
// cell-level steps that carry it out on the machines, in dispatch order;
// res carries what the ledger alone decided (the new cell of a split, the
// size of a rebalance). A refused op — unknown or retired cell, last host,
// no routable cell, a front-door rejection — returns the error and no
// steps, and leaves the routing state untouched.
//
// A MigrateIn step carries no VM: it places whatever the MigrateOut step
// right before it hands over (see runSteps). Callers pass a one-element
// buf so the one-step ops of the request stream plan without allocating a
// steps slice.
func (t *topology) plan(op *Op, buf []*request) (steps []*request, res OpResult, err error) {
	steps = buf
	step := func(kind reqKind, cell int) *request {
		r := &request{kind: kind, cell: cell, at: op.At}
		steps = append(steps, r)
		return r
	}
	migrate := func(victims []cluster.VMID, from, into int) {
		for _, id := range victims {
			step(reqMigrateOut, from).id = id
			step(reqMigrateIn, into)
		}
	}
	switch op.Kind {
	case OpPlace:
		var c int
		if c, err = t.routeCreate(&op.Rec, op.At); err == nil {
			step(reqPlace, c).rec = op.Rec
		}
	case OpExit:
		// Exits of VMs the fleet never routed touch no cell; routed exits
		// always reach theirs, even when the placement failed for capacity,
		// because the cell's clock must advance past the exit time exactly
		// as an offline replay of the cell's shard would.
		if c, ok := t.routeExit(op.VM); ok {
			step(reqExit, c).id = op.VM
		}
	case OpTick:
		// Retired cells are skipped: their clocks freeze at merge time and
		// jump to the horizon when the fleet drains.
		for c := range t.hosts {
			if !t.retired[c] {
				step(reqTick, c)
			}
		}
	case OpAddHosts:
		if err = t.addHosts(op.Cell, op.N); err == nil {
			step(reqAddHosts, op.Cell).n = op.N
		}
	case OpRemoveHost:
		if err = t.removeHost(op.Cell); err == nil {
			step(reqRemoveHost, op.Cell).hid = op.Host
		}
	case OpDrainCell:
		err = t.setRoutable(op.Cell, false)
	case OpRehydrateCell:
		err = t.setRoutable(op.Cell, true)
	case OpSplitCell:
		if res.NewCell, err = t.split(op.Cell, op.N); err == nil {
			// The source gives up its k highest IDs, highest first, so its
			// IDs stay dense and its score caches rebind instead of
			// degrading; those hosts must be empty — rebalance or drain
			// first.
			for id := t.hosts[op.Cell] + op.N - 1; id >= t.hosts[op.Cell]; id-- {
				step(reqRemoveHost, op.Cell).hid = cluster.HostID(id)
			}
		}
	case OpMergeCells:
		grow := 0
		if op.Cell >= 0 && op.Cell < len(t.hosts) {
			grow = t.hosts[op.Cell]
		}
		var victims []cluster.VMID
		if victims, err = t.merge(op.Cell, op.Into); err == nil {
			step(reqAddHosts, op.Into).n = grow
			migrate(victims, op.Cell, op.Into)
		}
	case OpRebalance:
		src, dst, victims := t.rebalance(op.N)
		res.Moves = len(victims)
		migrate(victims, src, dst)
	default:
		err = fmt.Errorf("serve: unknown op kind %d", op.Kind)
	}
	return steps, res, err
}

// runSteps carries out a planned op: start hands each step to its cell in
// plan order, finish collects the answers in the same order, folded into
// res, and the step errors come back joined. Online the two are a cell
// server's enqueue and await: every step sits in its cell's queue before the
// first answer is awaited, so the cells of a tick work in parallel and no
// cell's ordered stream stalls behind a step not yet sent. Offline start
// does nothing and finish applies the step to a bare machine. The one data
// dependency holds on both sides: a MigrateIn starts only once the
// MigrateOut right before it has answered with the VM to carry over.
//
// Every step runs even after one failed: online their cell sequence numbers
// are already reserved, and each cell's stream must stay contiguous.
func runSteps(kind OpKind, steps []*request, res *OpResult, start func(*request), finish func(*request) response) error {
	var errs []error
	var vm *cluster.VM // what the last finished step handed over (MigrateOut only)
	done := 0
	collect := func(upto int) {
		for ; done < upto; done++ {
			r := steps[done]
			resp := finish(r)
			vm = resp.vm
			switch r.kind {
			case reqPlace:
				res.Host, res.Placed = resp.host, resp.placed
			case reqExit:
				res.Removed = resp.removed
			case reqTick:
				if resp.now > res.Now {
					res.Now = resp.now
				}
			}
			if resp.err == nil {
				continue
			}
			if len(steps) > 1 {
				resp.err = fmt.Errorf("serve: %s: step %d of %d (cell %d): %w", kind, done+1, len(steps), r.cell, resp.err)
			}
			errs = append(errs, resp.err)
		}
	}
	for i, r := range steps {
		if r.kind == reqMigrateIn {
			// A nil vm (the VM was not running — e.g. its placement failed
			// for capacity) still dispatches, as a sequencing no-op.
			collect(i)
			r.vm = vm
		}
		start(r)
	}
	collect(len(steps))
	return errors.Join(errs...)
}

// cellConfig is the one per-cell config builder: cell idx of the fleet,
// hosts wide, as a single-server Config — fresh policy and injectors from
// the fleet's factories, the fleet's geometry and settings. The online
// fleet starts a Server from it and the offline runner a bare machine, for
// original cells and cells carved out later by a split alike.
func cellConfig(cfg *FleetConfig, idx, hosts int) (Config, error) {
	pol, err := cfg.NewPolicy(idx)
	if err == nil && pol == nil {
		err = errors.New("serve: fleet policy factory returned nil")
	}
	if err != nil {
		return Config{}, err
	}
	var inj []sim.Injector
	if cfg.Injectors != nil {
		inj = cfg.Injectors(idx)
	}
	return Config{
		// The offline counterpart (cell.Shard) names cells the same way;
		// keeping the names aligned keeps drain payloads diffable.
		PoolName:    fmt.Sprintf("%s/cell-%d", cfg.PoolName, idx),
		Hosts:       hosts,
		HostShape:   cfg.HostShape,
		WarmUp:      cfg.WarmUp,
		Horizon:     cfg.Horizon,
		Policy:      pol,
		TickEvery:   cfg.TickEvery,
		SampleEvery: cfg.SampleEvery,
		Injectors:   inj,
		QueueDepth:  cfg.QueueDepth,
		Memo:        cfg.Memo,
		TraceK:      cfg.TraceK,
		TraceCap:    cfg.TraceCap,
		SLO:         cellSLO(cfg),
	}, nil
}

// newLedger is where NewFleet and RunScriptOffline both start: it validates
// cfg, fills its defaults, builds the topology ledger with its front-door
// gate, and builds every initial cell through grow.
func newLedger(cfg *FleetConfig, grow func(idx, hosts int) error) (*topology, error) {
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
	cfg.SLO = cfg.SLO.Normalize()
	hosts := cell.SplitHosts(cfg.Hosts, cfg.Cells)
	topo, err := newTopology(cfg.Router, hosts)
	if err != nil {
		return nil, err
	}
	topo.gate = slo.NewGate(cfg.SLO)
	topo.grow = func(idx, hosts int) error {
		if err := grow(idx, hosts); err != nil {
			return fmt.Errorf("serve: fleet cell %d: %w", idx, err)
		}
		return nil
	}
	for i, h := range hosts {
		if err := topo.grow(i, h); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// RunScriptOffline executes a script sequentially against bare per-cell
// simulation machines — no event loops, no sequencer, no HTTP — and rolls
// the final results up. It is the ground truth the live Fleet is diffed
// against: both run every op through topology.plan and every step through
// applyTo, so a fleet replaying the script at any concurrency (op i under
// sequence number i+1) drains to a byte-identical report.
func RunScriptOffline(cfg FleetConfig, ops []Op) (*cell.Rollup, error) {
	var machines []*sim.Machine
	topo, err := newLedger(&cfg, func(idx, hosts int) error {
		cc, err := cellConfig(&cfg, idx, hosts)
		if err != nil {
			return err
		}
		cc.TraceK = 0 // nothing reads an offline cell's decision ring
		m, _, err := newMachine(&cc)
		if err != nil {
			return err
		}
		machines = append(machines, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	apply := func(r *request) response { return applyTo(machines[r.cell], r) }
	for i := range ops {
		op := &ops[i]
		steps, res, err := topo.plan(op, nil)
		if err == nil {
			err = runSteps(op.Kind, steps, &res, func(*request) {}, apply)
		}
		// A front-door rejection is counted at the gate and invisible to
		// routing; anything else ends the script.
		if err != nil && !slo.IsReject(err) {
			return nil, fmt.Errorf("serve: script op %d (%s): %w", i, op.Kind, err)
		}
	}
	results := make([]*sim.Result, len(machines))
	for i, m := range machines {
		if results[i], err = m.Finish(); err != nil {
			return nil, fmt.Errorf("serve: script finish cell %d: %w", i, err)
		}
	}
	roll, err := cell.RollUp(topo.kind, topo.hosts, results)
	if err != nil {
		return nil, err
	}
	attachFrontDoorLocked(topo, roll)
	return roll, nil
}

// FleetReportOf projects a rollup into the canonical fleet report — the
// exact struct a live fleet's /drain marshals, so an offline script or
// scenario run and an online serve of the same stream can be diffed
// byte-for-byte as JSON documents.
func FleetReportOf(pool, policy string, roll *cell.Rollup) FleetDrainResponse {
	out := FleetDrainResponse{
		Pool:   pool,
		Policy: policy,
		Metrics: &runner.Metrics{
			AvgEmptyHostFrac:  roll.AvgEmptyHostFrac,
			AvgEmptyToFree:    roll.AvgEmptyToFree,
			AvgPackingDensity: roll.AvgPackingDensity,
			AvgCPUUtil:        roll.AvgCPUUtil,
			Placements:        roll.Placements,
			Exits:             roll.Exits,
			Failed:            roll.Failed,
			Killed:            roll.Killed,
			MigratedOut:       roll.MigratedOut,
			MigratedIn:        roll.MigratedIn,
			ModelCalls:        roll.ModelCalls,
			SLO:               roll.SLO,
		},
		Router:     roll.Router,
		Hosts:      roll.Hosts,
		UtilSpread: roll.UtilSpread,
		Cells:      make([]DrainResponse, len(roll.Cells)),
	}
	for i, res := range roll.Cells {
		out.SeriesLen += res.Series.Len()
		out.Cells[i] = drainResponseOf(res)
	}
	return out
}

// --- admin ops ---------------------------------------------------------------
//
// Each method below is Do over the matching Op: seq > 0 enrolls the op in
// the global ordered stream, exactly like a placement.

// AddHosts grows cell c by n hosts at virtual time at.
func (f *Fleet) AddHosts(c, n int, at time.Duration, seq uint64) error {
	_, err := f.Do(Op{Kind: OpAddHosts, Cell: c, N: n, At: at}, seq)
	return err
}

// RemoveHost retires one host from cell c at virtual time at. The ledger
// weight drops at sequencing time; if the cell then refuses the removal
// (the host still runs VMs) the error surfaces to the operator while the
// ledger keeps the decremented weight — see topology for why.
func (f *Fleet) RemoveHost(c int, id cluster.HostID, at time.Duration, seq uint64) error {
	_, err := f.Do(Op{Kind: OpRemoveHost, Cell: c, Host: id, At: at}, seq)
	return err
}

// DrainCell stops routing new placements to cell c. VMs already there keep
// running and exiting; sequenced requests in flight to the cell land
// normally — nothing is dropped. A pure ledger flip: no cell-level step.
func (f *Fleet) DrainCell(c int, seq uint64) error {
	_, err := f.Do(Op{Kind: OpDrainCell, Cell: c}, seq)
	return err
}

// RehydrateCell resumes routing placements to a drained cell.
func (f *Fleet) RehydrateCell(c int, seq uint64) error {
	_, err := f.Do(Op{Kind: OpRehydrateCell, Cell: c}, seq)
	return err
}

// SplitCell carves k hosts out of cell c into a brand-new routable cell
// (fresh pool, fresh policy from the fleet's factory) and returns the new
// cell's index. The source gives up its k highest-ID hosts, which must be
// empty — rebalance or drain first.
func (f *Fleet) SplitCell(c, k int, at time.Duration, seq uint64) (int, error) {
	res, err := f.Do(Op{Kind: OpSplitCell, Cell: c, N: k, At: at}, seq)
	return res.NewCell, err
}

// MergeCells merges cell from into cell into: into grows by from's host
// count, every VM in from migrates over through the MigrateOut/MigrateIn
// seam (in ascending VM ID order), and from retires — unroutable, weight
// zero, clock frozen until the fleet drains. Sequence numbers for all the
// cell-level steps are reserved up front, so requests racing the merge
// order deterministically around it; exits of migrated (and even
// capacity-failed) VMs route to into afterwards.
func (f *Fleet) MergeCells(from, into int, at time.Duration, seq uint64) error {
	_, err := f.Do(Op{Kind: OpMergeCells, Cell: from, Into: into, At: at}, seq)
	return err
}

// Rebalance migrates VMs from the most-utilized cell to the least-utilized
// routable cell (by the commitment ledger) until their scores meet or
// maxMoves is reached (<= 0: unlimited). Returns the number of VMs moved.
// The plan is computed deterministically at sequencing time, so an online
// rebalance moves exactly the VMs its offline script twin does.
func (f *Fleet) Rebalance(maxMoves int, at time.Duration, seq uint64) (int, error) {
	res, err := f.Do(Op{Kind: OpRebalance, N: maxMoves, At: at}, seq)
	return res.Moves, err
}

// --- admin wire types and client methods ------------------------------------

// AdminAddHostsRequest grows one cell by N hosts at virtual time At.
type AdminAddHostsRequest struct {
	Seq  uint64        `json:"seq,omitempty"`
	At   time.Duration `json:"at_ns,omitempty"`
	Cell int           `json:"cell"`
	N    int           `json:"n"`
}

// maxAddHosts caps one add-hosts request at the largest scale-tier cell.
const maxAddHosts = 1 << 20

// validate refuses an absurd host count before the op takes a sequence turn.
func (q *AdminAddHostsRequest) validate() error {
	if q.N > maxAddHosts {
		return fmt.Errorf("serve: add %d hosts: at most %d per request", q.N, maxAddHosts)
	}
	return nil
}

// AdminRemoveHostRequest retires one empty host from a cell.
type AdminRemoveHostRequest struct {
	Seq  uint64         `json:"seq,omitempty"`
	At   time.Duration  `json:"at_ns,omitempty"`
	Cell int            `json:"cell"`
	Host cluster.HostID `json:"host"`
}

// AdminCellRequest names one cell (drain-cell, rehydrate-cell).
type AdminCellRequest struct {
	Seq  uint64 `json:"seq,omitempty"`
	Cell int    `json:"cell"`
}

// AdminSplitRequest carves N hosts out of a cell into a new cell.
type AdminSplitRequest struct {
	Seq  uint64        `json:"seq,omitempty"`
	At   time.Duration `json:"at_ns,omitempty"`
	Cell int           `json:"cell"`
	N    int           `json:"n"`
}

// AdminSplitResponse reports the new cell's index.
type AdminSplitResponse struct {
	NewCell int `json:"new_cell"`
}

// AdminMergeRequest merges cell From into cell Into and retires From.
type AdminMergeRequest struct {
	Seq  uint64        `json:"seq,omitempty"`
	At   time.Duration `json:"at_ns,omitempty"`
	From int           `json:"from"`
	Into int           `json:"into"`
}

// AdminRebalanceRequest moves VMs from the most- to the least-utilized
// cell. MaxMoves <= 0 moves until the scores meet.
type AdminRebalanceRequest struct {
	Seq      uint64        `json:"seq,omitempty"`
	At       time.Duration `json:"at_ns,omitempty"`
	MaxMoves int           `json:"max_moves,omitempty"`
}

// AdminRebalanceResponse reports how many VMs moved.
type AdminRebalanceResponse struct {
	Moves int `json:"moves"`
}

// AdminOKResponse acknowledges an admin op with no other payload.
type AdminOKResponse struct {
	OK bool `json:"ok"`
}

// AddHosts grows one cell of a served fleet.
func (c *Client) AddHosts(ctx context.Context, req AdminAddHostsRequest) error {
	return c.post(ctx, "/admin/add-hosts", req, nil)
}

// RemoveHost retires one empty host from a fleet cell.
func (c *Client) RemoveHost(ctx context.Context, req AdminRemoveHostRequest) error {
	return c.post(ctx, "/admin/remove-host", req, nil)
}

// DrainCell stops routing new placements to a cell.
func (c *Client) DrainCell(ctx context.Context, req AdminCellRequest) error {
	return c.post(ctx, "/admin/drain-cell", req, nil)
}

// RehydrateCell resumes routing placements to a drained cell.
func (c *Client) RehydrateCell(ctx context.Context, req AdminCellRequest) error {
	return c.post(ctx, "/admin/rehydrate-cell", req, nil)
}

// SplitCell carves hosts out of one cell into a new cell and returns the
// new cell's index.
func (c *Client) SplitCell(ctx context.Context, req AdminSplitRequest) (AdminSplitResponse, error) {
	var out AdminSplitResponse
	err := c.post(ctx, "/admin/split-cell", req, &out)
	return out, err
}

// MergeCells merges one cell into another and retires the source.
func (c *Client) MergeCells(ctx context.Context, req AdminMergeRequest) error {
	return c.post(ctx, "/admin/merge-cells", req, nil)
}

// Rebalance migrates VMs from the most- to the least-utilized cell.
func (c *Client) Rebalance(ctx context.Context, req AdminRebalanceRequest) (AdminRebalanceResponse, error) {
	var out AdminRebalanceResponse
	err := c.post(ctx, "/admin/rebalance", req, &out)
	return out, err
}
