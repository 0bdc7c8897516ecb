package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// ErrNoRoutableCell is returned by placements when every cell is drained or
// retired. Rehydrate a cell (or split a new one) to resume admission.
var ErrNoRoutableCell = errors.New("serve: no routable cell")

// topology is the fleet's view of the routing ledger: the one cell.Ledger
// (discipline, cursor, routable mask, commitments, VM→cell index — the same
// type and methods cell.Shard walks a trace through offline) wrapped with
// what only a serving fleet has: the front-door admission gate, cell
// retirement and cell growth. It is the one piece of state the online
// front-end (Fleet, under its mutex) and the offline script runner
// (RunScriptOffline, single-threaded) share verbatim — every routing or
// elasticity decision is a pure function of this struct, which is what
// makes an online run byte-comparable to its offline script. It has one
// side effect, the grow hook: a split starts the new cell's engine from
// inside the ledger, before it commits.
//
// The ledger is updated at sequencing time, before the per-cell machines
// apply the operation, and unconditionally: a cell-level failure (say, a
// host removal refused because the host still runs VMs) surfaces as an
// error to the operator but does not roll the ledger back, so both sides
// keep identical ledgers for identical op streams. Parity guarantees
// therefore cover scripts whose operations succeed.
type topology struct {
	*cell.Ledger

	retired []bool // cell was merged away: terminal, unroutable, weight 0

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

// newTopology builds the ledger over the initial cells; an empty router
// kind means feature-hash.
func newTopology(kind string, hosts []int) (*topology, error) {
	if kind == "" {
		kind = "feature-hash"
	}
	l, err := cell.NewLedger(kind, hosts)
	if err != nil {
		return nil, err
	}
	return &topology{Ledger: l, retired: make([]bool, len(hosts))}, nil
}

// liveCell validates that c names a cell that has not been merged away.
func (t *topology) liveCell(c int) error {
	if c < 0 || c >= len(t.Hosts) {
		return fmt.Errorf("serve: no cell %d (fleet has %d)", c, len(t.Hosts))
	}
	if t.retired[c] {
		return fmt.Errorf("serve: cell %d is retired", c)
	}
	return nil
}

// routeCreate picks the cell for a new VM (cell.Ledger.Route, restricted to
// routable cells) and records the decision.
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
	c := t.Route(rec)
	if c < 0 {
		return 0, ErrNoRoutableCell
	}
	return c, nil
}

// addHosts grows cell c's ledger weight by n.
func (t *topology) addHosts(c, n int) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("serve: add %d hosts", n)
	}
	t.Hosts[c] += n
	return nil
}

// removeHost shrinks cell c's ledger weight by one. The last host cannot be
// removed — merge the cell away instead.
func (t *topology) removeHost(c int) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	if t.Hosts[c] <= 1 {
		return fmt.Errorf("serve: cell %d: cannot remove its last host (merge the cell instead)", c)
	}
	t.Hosts[c]--
	return nil
}

// setRoutable drains (false) or rehydrates (true) a cell. VMs already in a
// drained cell keep running and exiting there; only new placements avoid it.
func (t *topology) setRoutable(c int, v bool) error {
	if err := t.liveCell(c); err != nil {
		return err
	}
	t.Routable[c] = v
	return nil
}

// split carves k hosts out of cell c into a new routable cell appended at
// the next index, built through grow before the ledger commits. Returns the
// new cell's index.
func (t *topology) split(c, k int) (int, error) {
	if err := t.liveCell(c); err != nil {
		return 0, err
	}
	if k < 1 || t.Hosts[c]-k < 1 {
		return 0, fmt.Errorf("serve: cell %d (%d hosts): cannot split off %d", c, t.Hosts[c], k)
	}
	if err := t.grow(len(t.Hosts), k); err != nil {
		return 0, err
	}
	t.Hosts[c] -= k
	t.retired = append(t.retired, false)
	return t.AddCell(k), nil
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
	victims := t.VMs(from)
	for _, id := range victims {
		t.Move(id, into)
	}
	t.Hosts[into] += t.Hosts[from]
	t.Hosts[from] = 0
	t.Routable[from] = false
	t.retired[from] = true
	return victims, nil
}

// rebalance plans a deterministic load shift: source is the non-retired
// cell with the highest committed CPU per host (ties to the lowest index),
// destination the routable cell with the lowest. VMs move in ascending ID
// order — so the plan is identical however the ledger was built — until the
// source's score drops to the destination's or maxMoves is hit (maxMoves <=
// 0: unlimited). The ledger is updated move by move; the returned plan is
// for the machines.
func (t *topology) rebalance(maxMoves int) (src, dst int, victims []cluster.VMID) {
	src, dst = -1, -1
	for i := range t.Hosts {
		if t.retired[i] || t.Hosts[i] <= 0 {
			continue
		}
		if src < 0 || t.Score(i) > t.Score(src) {
			src = i
		}
		if t.Routable[i] && (dst < 0 || t.Score(i) < t.Score(dst)) {
			dst = i
		}
	}
	if src < 0 || dst < 0 || src == dst {
		return -1, -1, nil
	}
	for _, id := range t.VMs(src) {
		if maxMoves > 0 && len(victims) >= maxMoves {
			break
		}
		if t.Score(src) <= t.Score(dst) {
			break
		}
		t.Move(id, dst)
		victims = append(victims, id)
	}
	return src, dst, victims
}

// --- operations: Op → plan → steps ------------------------------------------

// OpKind enumerates fleet operations.
type OpKind uint8

// Fleet operations. The first three mirror the request stream a client
// sends; the rest are the elasticity admin ops, executed — like them —
// through Fleet.Do, where seq > 0 enrolls the op in the global ordered
// stream exactly like a placement.
const (
	OpPlace OpKind = iota
	OpExit
	OpTick
	// OpAddHosts grows cell Cell by N hosts at virtual time At.
	OpAddHosts
	// OpRemoveHost retires host Host from cell Cell. The ledger weight drops
	// at sequencing time; if the cell then refuses the removal (the host
	// still runs VMs) the error surfaces to the operator while the ledger
	// keeps the decremented weight — see topology for why.
	OpRemoveHost
	// OpDrainCell stops routing new placements to cell Cell. VMs already
	// there keep running and exiting; sequenced requests in flight to the
	// cell land normally — nothing is dropped. A pure ledger flip, like
	// OpRehydrateCell, which resumes routing: no cell-level step.
	OpDrainCell
	OpRehydrateCell
	// OpSplitCell carves N hosts out of cell Cell into a brand-new routable
	// cell (fresh pool, fresh policy from the fleet's factory), reported in
	// OpResult.NewCell. The source gives up its N highest-ID hosts, which
	// must be empty — rebalance or drain first.
	OpSplitCell
	// OpMergeCells merges cell Cell into cell Into: Into grows by Cell's
	// host count, every VM in Cell migrates over through the MigrateOut/
	// MigrateIn seam (in ascending VM ID order), and Cell retires —
	// unroutable, weight zero, clock frozen until the fleet drains. Sequence
	// numbers for all the cell-level steps are reserved up front, so requests
	// racing the merge order deterministically around it; exits of migrated
	// (and even capacity-failed) VMs route to Into afterwards.
	OpMergeCells
	// OpRebalance migrates VMs from the most-utilized cell to the
	// least-utilized routable cell (by the commitment ledger) until their
	// scores meet or N moves are made (<= 0: unlimited); OpResult.Moves
	// counts them. The plan is computed deterministically at sequencing
	// time, so an online rebalance moves exactly the VMs its offline script
	// twin does.
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
	ops := make([]Op, 0, 2*len(tr.Records))
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
		if c, ok := t.Exit(op.VM); ok {
			step(reqExit, c).id = op.VM
		}
	case OpTick:
		// Retired cells are skipped: their clocks freeze at merge time and
		// jump to the horizon when the fleet drains.
		for c := range t.Hosts {
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
			for id := t.Hosts[op.Cell] + op.N - 1; id >= t.Hosts[op.Cell]; id-- {
				step(reqRemoveHost, op.Cell).hid = cluster.HostID(id)
			}
		}
	case OpMergeCells:
		grow := 0
		if op.Cell >= 0 && op.Cell < len(t.Hosts) {
			grow = t.Hosts[op.Cell]
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
// hosts wide, as a single-server Config — the fleet's embedded Config with
// the cell's own name and size, a fresh policy and injectors from the
// fleet's factories. The online fleet starts a Server from it and the
// offline runner a bare machine, for original cells and cells carved out
// later by a split alike.
func cellConfig(cfg *FleetConfig, idx, hosts int) (Config, error) {
	pol, err := cfg.NewPolicy(idx)
	if err == nil && pol == nil {
		err = errors.New("serve: fleet policy factory returned nil")
	}
	if err != nil {
		return Config{}, err
	}
	cc := cfg.Config
	// The offline counterpart (cell.Shard) names cells the same way;
	// keeping the names aligned keeps drain payloads diffable.
	cc.PoolName = fmt.Sprintf("%s/cell-%d", cfg.PoolName, idx)
	cc.Hosts = hosts
	cc.Policy = pol
	cc.Injectors = nil
	if cfg.NewInjectors != nil {
		cc.Injectors = cfg.NewInjectors(idx)
	}
	cc.TraceOut = nil // see FleetConfig: one writer cannot take N cells' streams
	cc.Memo = nil     // the wrapper is fleet-wide: the node reports it, once
	cc.SLO = cellSLO(cfg)
	return cc, nil
}

// fleetTopology is where NewFleet and RunScriptOffline both start: it
// validates cfg, fills its defaults, builds the topology with its front-door
// gate, and builds every initial cell through grow.
func fleetTopology(cfg *FleetConfig, grow func(idx, hosts int) error) (*topology, error) {
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
	topo, err := fleetTopology(&cfg, func(idx, hosts int) error {
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
	roll, err := cell.RollUp(topo.Kind, topo.Hosts, results)
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
func FleetReportOf(pool, policy string, roll *cell.Rollup) DrainResponse {
	metrics := roll.Aggregates
	out := DrainResponse{
		Pool:       pool,
		Policy:     policy,
		Metrics:    &metrics,
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
