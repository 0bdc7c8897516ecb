package serve

import (
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
// retirement and cell growth. The Fleet reads and writes it under its mutex
// at each op's front-door turn, so every routing or elasticity decision is
// a pure function of this struct and the sequenced op order, which is what
// makes a concurrent online run byte-comparable to the same script run in
// program order. It has one side effect, the grow hook: a split starts the
// new cell's Server from inside the ledger, before it commits.
//
// The ledger is updated at sequencing time, before the cells apply the
// operation, and unconditionally: a cell-level failure (say, a host removal
// refused because the host still runs VMs) surfaces as an error to the
// operator but does not roll the ledger back, so any two runs of one op
// stream keep identical ledgers. Parity guarantees therefore cover scripts
// whose operations succeed.
type topology struct {
	*cell.Ledger

	// gate is the front-door SLO admission controller (nil: admission off).
	// It lives on the topology because it is part of the same ledger
	// contract: the Fleet consults it under its mutex at each op's
	// front-door turn, so the admit/reject stream follows the sequenced op
	// order.
	gate *slo.Gate

	// grow builds the Server of a new cell (Fleet.addCellLocked) on every
	// split. The ledger only commits a split once grow succeeded.
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
	return &topology{Ledger: l}, nil
}

// liveCell validates that c names a cell that has not been merged away. A
// merge is the only way a cell's weight reaches 0 (removeHost keeps one
// host, a split leaves its source one), so weight 0 is what retired means.
func (t *topology) liveCell(c int) error {
	if c < 0 || c >= len(t.Hosts) {
		return fmt.Errorf("serve: no cell %d (fleet has %d)", c, len(t.Hosts))
	}
	if t.Hosts[c] == 0 {
		return fmt.Errorf("serve: cell %d is retired", c)
	}
	return nil
}

// routeCreate picks the cell for a new VM (cell.Ledger.Route, restricted to
// routable cells) and records the decision. A VM ID the ledger still routes
// is refused first (sim.ErrLiveVM), before the gate charges a token.
//
// With a front-door gate, admission runs first, against the record's class
// bucket at the request's virtual time: a rejection (*slo.RejectError)
// leaves every piece of routing state — cursor, ledger, commitment — and
// the gate's bucket untouched except for the class's token and counters, so
// rejected requests are invisible to placement.
func (t *topology) routeCreate(rec *trace.Record, at time.Duration) (int, error) {
	if c, ok := t.CellOf(rec.ID); ok {
		return 0, fmt.Errorf("serve: place vm %d: %w (routed to cell %d)", rec.ID, sim.ErrLiveVM, c)
	}
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
	return t.AddCell(k), nil
}

// merge retires cell from into cell into: into absorbs from's ledger weight
// and commitments, every VM routed to from — including capacity-failed ones
// whose future exits must still resolve somewhere — is repointed at into,
// and from becomes terminal (unroutable, retired, weight 0). Returns the
// VMs to migrate, sorted by ID: the deterministic migration plan, the same
// however concurrently the op stream arrived.
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
		if t.Hosts[i] == 0 {
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
	// there keep running and exiting; steps already holding the cell's
	// tickets land normally — nothing is dropped. A pure ledger flip, like
	// OpRehydrateCell, which resumes routing: no cell-level step.
	OpDrainCell
	OpRehydrateCell
	// OpSplitCell carves N hosts out of cell Cell into a brand-new routable
	// cell (fresh pool, fresh policy from the fleet's factory), reported in
	// OpResult.NewCell. The source gives up the N highest-ID hosts its pool
	// holds when the removals apply, whatever hosts it lost before; they
	// must be empty and not withdrawn — rebalance or drain first.
	OpSplitCell
	// OpMergeCells merges cell Cell into cell Into: Into grows by Cell's
	// host count, every VM in Cell migrates over through the MigrateOut/
	// MigrateIn seam (in ascending VM ID order), and Cell retires —
	// unroutable, weight zero, clock frozen until the fleet drains. All the
	// cell-level steps draw their tickets during the merge's turn, so requests
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

// Op is one fleet operation, the unit of work of Fleet.Do. A script is a
// sequence of Ops in global order: op i corresponds to fleet sequence number
// i+1, which is how a script replays online at any concurrency, and
// RunScriptOffline runs it in program order.
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
// with events past the trace's measurement end dropped. It is the script a
// trace is: Client.Replay sends these ops, ops[i] under sequence number
// i+1, so RunScriptOffline over them is the offline run of an online replay
// of the same trace.
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
func (t *topology) plan(op *Op, buf []request) (steps []request, res OpResult, err error) {
	steps = buf
	step := func(kind reqKind, cell int) *request {
		steps = append(steps, request{kind: kind, cell: cell, at: op.At})
		return &steps[len(steps)-1]
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
		for c, hosts := range t.Hosts {
			if hosts > 0 {
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
			// The source gives up its N highest-ID hosts, highest first,
			// each found when its removal applies: the ledger counts hosts,
			// not IDs, and a cell that lost a middle host has no dense IDs
			// to name. The top keeps dense IDs dense, so score caches rebind
			// instead of degrading; those hosts must be empty — rebalance or
			// drain first.
			for range op.N {
				step(reqRemoveTop, op.Cell)
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

// runSteps carries out a planned op on the fleet's cells, each step in its
// cell ticket's turn, and folds the answers into res in plan order, joining
// the step errors. The one data dependency: a MigrateIn places the VM its
// MigrateOut right before it handed over, so it starts once every step
// before it has answered. The steps between two MigrateIns run concurrently
// — each waits for its own ticket's turn — so a tick costs its slowest cell,
// not the sum.
//
// Every step runs even after one failed: every cell ticket drawn must take
// its turn.
func runSteps(kind OpKind, steps []request, res *OpResult, cells []*Server) error {
	var errs []error
	var vm *cluster.VM // what the last folded step handed over (MigrateOut only)
	fold := func(i int, resp response) {
		vm = resp.vm
		switch steps[i].kind {
		case reqPlace:
			res.Host, res.Placed = resp.host, resp.placed
		case reqExit:
			res.Removed = resp.removed
		case reqTick:
			res.Now = max(res.Now, resp.now)
		}
		if resp.err == nil {
			return
		}
		if len(steps) > 1 {
			resp.err = fmt.Errorf("serve: %s: step %d of %d (cell %d): %w", kind, i+1, len(steps), steps[i].cell, resp.err)
		}
		errs = append(errs, resp.err)
	}
	for lo := 0; lo < len(steps); {
		hi := lo + 1
		for hi < len(steps) && steps[hi].kind != reqMigrateIn {
			hi++
		}
		if steps[lo].kind == reqMigrateIn {
			// A nil vm (the VM was not running — e.g. its placement failed
			// for capacity) still takes its turn, as a sequencing no-op.
			steps[lo].vm = vm
		}
		if hi-lo == 1 {
			fold(lo, cells[steps[lo].cell].submit(&steps[lo]))
		} else {
			seg := append([]request(nil), steps[lo:hi]...) // the goroutines get a copy: steps must not escape
			resps := make([]response, len(seg))
			fanOut(len(seg), func(i int) error {
				resps[i] = cells[seg[i].cell].submit(&seg[i])
				return nil
			})
			for i, resp := range resps {
				fold(lo+i, resp)
			}
		}
		lo = hi
	}
	return errors.Join(errs...)
}

// RunScriptOffline runs a script through the engine a live fleet serves:
// NewFleet with tracing off (nothing reads an offline cell's decision ring),
// each op through Fleet.Do at sequence number 0 in program order, then the
// drain. A front-door rejection is counted at the gate and invisible to
// routing; any other error ends the script. A fleet replaying the script at
// any concurrency (op i under sequence number i+1) drains to the same bytes.
func RunScriptOffline(cfg FleetConfig, ops []Op) (*cell.Rollup, error) {
	cfg.TraceK = 0
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for i := range ops {
		if _, err := f.Do(ops[i], 0); err != nil && !slo.IsReject(err) {
			return nil, fmt.Errorf("serve: script op %d (%s): %w", i, ops[i].Kind, err)
		}
	}
	return f.Drain()
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
