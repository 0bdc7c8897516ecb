package sim

import (
	"errors"
	"fmt"
	"time"

	"lava/internal/cluster"
	"lava/internal/metrics"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
)

// Injector is an operational event driver ticked by the simulator: the
// defragmenter (internal/defrag), the stranding probe (internal/stranding)
// and the scenario engines (internal/scenario, drain waves, correlated
// failures, capacity crunches). It acts through Control, so its mutations —
// forced VM exits, host withdrawals — stay policy-aware even though the
// trace itself does not contain them. Injectors run at the start of every
// tick, in Config order and before the policy's OnTick, so policies react
// to injected events on the same tick.
type Injector interface {
	Inject(ctl *Control, now time.Duration)
}

// Control is the mutation surface the simulator hands to Injectors. It
// bundles the pool with the run's policy and counters so injected events
// stay indistinguishable from trace events: a killed VM leaves through the
// same policy hook as a natural exit, a migrated VM through those of an
// exit and a placement. With Machine, which drives it, Control is the
// pool's only writer outside internal/cluster. A host withdrawal is a
// drain claim the pool counts (Withdraw/Restore, cluster.Pool.Withdraw), so
// overlapping events — a drain wave crossing a defragmenter's drain or a
// capacity crunch — keep a host out of service until the last claim on it
// ends. A live migration's copy window is capacity held on its target
// (Reserve/Release), not a VM, so no policy hook, predictor, counter or
// trace record sees it.
type Control struct {
	pool   *cluster.Pool
	policy scheduler.Policy
	res    *Result

	tracer *ptrace.Recorder // decision recorder (nil: tracing off)
	now    time.Duration    // current tick time, for injector event stamps

	free freeVMs // VMs gone for good (Kill, Machine.Exit), for Machine.Create
}

// freeVMs keeps the VMs that left a Machine for good, so that Create reuses
// their objects instead of allocating: a replay then holds one cluster.VM
// per live VM, not one per placement. An object becomes reusable only once
// the clock has moved past its exit instant, so a reused object never meets
// what was keyed on it and that instant — scheduler.ExitCache's memo, or a
// same-instant exit and re-create of one ID. The list belongs to one
// Machine and one goroutine, unlike a sync.Pool, so reuse is deterministic.
type freeVMs struct {
	vms  []*cluster.VM
	ripe int           // vms[:ripe] exited before at and may be reused
	at   time.Duration // the latest exit instant put
}

// put keeps a VM that exited at the instant at. It waits with the VMs of
// the latest exit instant, so an instant earlier than that only waits
// longer. At most live+1 VMs wait, live being the VMs still running: on a
// clock that stands still (a served stream that never advances time) no
// create can take them, and the list would otherwise keep every exit.
func (f *freeVMs) put(vm *cluster.VM, at time.Duration, live int) {
	if at > f.at {
		f.ripe, f.at = len(f.vms), at
	}
	if len(f.vms)-f.ripe <= live {
		f.vms = append(f.vms, vm)
	}
}

// get returns a VM that exited before now, or a new one when none did.
func (f *freeVMs) get(now time.Duration) *cluster.VM {
	if now > f.at {
		f.ripe = len(f.vms)
	}
	if f.ripe == 0 {
		return new(cluster.VM)
	}
	f.ripe--
	n := len(f.vms) - 1
	vm := f.vms[f.ripe]
	f.vms[f.ripe], f.vms[n] = f.vms[n], nil
	f.vms = f.vms[:n]
	return vm
}

// NewControl builds a Control over a pool/policy pair. The simulator calls
// this internally; tests drive injectors directly with it.
func NewControl(pool *cluster.Pool, policy scheduler.Policy, res *Result) *Control {
	if res == nil {
		res = &Result{}
	}
	return &Control{pool: pool, policy: policy, res: res}
}

// Pool returns the pool under simulation. Injectors may read it freely;
// host withdrawal must go through Withdraw/Restore, VM removal through Kill
// and VM moves through Migrate.
func (c *Control) Pool() *cluster.Pool { return c.pool }

// Withdraw puts a drain claim on a host (cluster.Pool.Withdraw): the
// first claim takes it out of service and is recorded as a withdrawal.
func (c *Control) Withdraw(id cluster.HostID) error {
	return c.claim(id, c.pool.Withdraw, ptrace.KindWithdraw)
}

// Restore ends one drain claim on a host (cluster.Pool.Restore): the last
// one returns it to service and is recorded as a restore.
func (c *Control) Restore(id cluster.HostID) error {
	return c.claim(id, c.pool.Restore, ptrace.KindRestore)
}

// claim applies one claim change and records a decision of the given kind
// when it flips the host's availability.
func (c *Control) claim(id cluster.HostID, change func(cluster.HostID) error, kind ptrace.Kind) error {
	h := c.pool.Host(id)
	was := h != nil && h.Unavailable()
	if err := change(id); err != nil {
		return fmt.Errorf("sim: %s: %w", kind, err)
	}
	if c.tracer != nil && h.Unavailable() != was {
		c.tracer.Record(ptrace.Decision{Kind: kind, T: c.now, Host: id, Level: -1})
	}
	return nil
}

// Kill force-exits a running VM (host failure): the VM leaves the pool and
// the policy observes the exit exactly as for a natural one. The VM's later
// trace EXIT event, if any, is skipped by the replay loop. The VM's object
// is then free for reuse (see cluster.VM). Only VMs die: a copy window on
// the host is not one, and lasts until its copy ends.
func (c *Control) Kill(id cluster.VMID, now time.Duration) error {
	h, vm, err := c.depart(id, now)
	if err != nil {
		return fmt.Errorf("sim: kill vm %d: %w", id, err)
	}
	c.free.put(vm, now, c.pool.NumVMs())
	c.res.Killed++
	if c.tracer != nil {
		c.tracer.Record(ptrace.Decision{Kind: ptrace.KindKill, T: now, VM: id, Host: h.ID, Level: -1})
	}
	return nil
}

// depart takes a running VM out of the pool and tells the policy, the part
// that a natural exit, a kill and a hand-over to another machine share;
// each caller keeps its own counter, trace record and free-list handling.
// It returns cluster.ErrNotRunning for a VM the pool does not run.
func (c *Control) depart(id cluster.VMID, now time.Duration) (*cluster.Host, *cluster.VM, error) {
	h, vm, err := c.pool.Exit(id)
	if err == nil && c.policy != nil {
		c.policy.OnExited(c.pool, h, vm, now)
	}
	return h, vm, err
}

// Reserve holds shape on dst for the copy window of a live migration,
// during which the VM takes capacity on both hosts (§4.4): capacity the
// pool's fit check counts and no VM occupies (cluster.Pool.Reserve). No
// policy hook, predictor, counter or trace record sees it, and it enters
// no host exit time.
func (c *Control) Reserve(shape resources.Vector, dst *cluster.Host) (*cluster.Reservation, error) {
	return c.pool.Reserve(dst, shape)
}

// Release ends a copy window and gives its capacity back
// (cluster.Pool.Release).
func (c *Control) Release(r *cluster.Reservation) error { return c.pool.Release(r) }

// Schedule asks the run's policy for a host for vm and places nothing:
// injected migrations pick their targets with the algorithm of initial
// placement (§4.4).
func (c *Control) Schedule(vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	return c.policy.Schedule(c.pool, vm, now)
}

// Migrate moves a running VM to dst (live migration): the policy observes
// it leave its source and join dst as an exit and a placement. A refused
// move changes nothing.
func (c *Control) Migrate(id cluster.VMID, dst *cluster.Host, now time.Duration) error {
	src, err := c.pool.Migrate(id, dst)
	if err != nil {
		return err
	}
	if c.policy != nil {
		vm := c.pool.VM(id)
		c.policy.OnExited(c.pool, src, vm, now)
		c.policy.OnPlaced(c.pool, dst, vm, now)
	}
	return nil
}

// Config configures one simulation run on the simulator's clock
// (simtime.TickEvery, simtime.SampleEvery).
type Config struct {
	// Trace supplies the pool geometry, the horizon and the warm-up prefix
	// (App. F) whose samples stay in the series but not in the aggregates.
	Trace  *trace.Trace
	Policy scheduler.Policy

	// Source, when set, feeds Run's replay loop incrementally instead of
	// Trace.Records: records are consumed one at a time in canonical
	// (arrival, ID) order and resident memory stays O(live VMs) — the
	// streamed-replay path for multi-million-VM traces (workload.Stream).
	// Trace still supplies the pool geometry, warm-up and measurement
	// horizon (its Records may be empty); for unbounded sources
	// Trace.Horizon must be set or the run has no defined end.
	// Results are byte-identical to a materialized replay of the same
	// record sequence. Run reads the source on a goroutine of its own,
	// ahead of the replay, so a source must share no mutable state with
	// the policy, the injectors or the tracer.
	Source trace.Stream

	// Injectors run on every tick, in order, before the policy tick: the
	// defragmenter, the stranding probe and the scenario engines
	// (internal/scenario), which drive operational events — drain waves,
	// correlated failures, capacity crunches — into an otherwise steady
	// trace.
	Injectors []Injector

	// CheckInvariants validates pool consistency at every sample (slow;
	// for tests).
	CheckInvariants bool

	// Tracer, when set, records every placement decision (with the
	// policy's top-K scored alternatives) and lifecycle event — the input
	// to the /trace endpoint and to counterfactual replay (Replay).
	// Tracing is observe-only: it cannot change results. nil disables it
	// with zero hot-path cost.
	Tracer *ptrace.Recorder

	// SLO enables class-aware admission: each Create is charged against its
	// class's deterministic token bucket before the policy sees it, and the
	// run reports per-class counts plus fairness/fitness in Result.SLO.
	// Rejections surface as *slo.RejectError — Run skips and counts them;
	// the serving layer maps them to HTTP 429. A nil (or all-unlimited,
	// non-tracking) config disables the layer entirely and keeps Result
	// byte-identical to pre-class builds.
	SLO *slo.Config
}

// Aggregates is the serializable aggregate slice of a run: the post-warm-up
// packing averages and the lifecycle counters. It is defined once and
// embedded in Result and in cell.Rollup (host-weighted averages, summed
// counters); runner.Metrics is an alias, so the BENCH JSON shape, a served
// /drain and a fleet rollup are one struct and cannot drift field by field.
type Aggregates struct {
	// Averages over the post-warm-up window.
	AvgEmptyHostFrac  float64 `json:"avg_empty_host_frac"`
	AvgEmptyToFree    float64 `json:"avg_empty_to_free"`
	AvgPackingDensity float64 `json:"avg_packing_density"`
	AvgCPUUtil        float64 `json:"avg_cpu_util"`

	Placements int `json:"placements"`
	Exits      int `json:"exits"`
	Failed     int `json:"failed"`           // VM requests that found no feasible host
	Killed     int `json:"killed,omitempty"` // VMs force-exited by scenario injectors (host failures)

	// Elasticity counters: VMs handed to / received from another cell via
	// MigrateOut/MigrateIn. Deliberately separate from Placements/Exits so
	// the canonical packing metrics of a rebalanced cell stay comparable to
	// a static one's.
	MigratedOut int `json:"migrated_out,omitempty"`
	MigratedIn  int `json:"migrated_in,omitempty"`

	ModelCalls int64 `json:"model_calls,omitempty"`

	// SLO is the per-class admission summary (nil when Config.SLO was nil
	// or a no-op): counts per class, Jain fairness over admission rates, and
	// the multi-objective fitness score with a neutral latency term. Omitted
	// for runs without the SLO layer so pre-class BENCH documents keep their
	// exact bytes.
	SLO *slo.Summary `json:"slo,omitempty"`
}

// Result summarizes a run.
type Result struct {
	PoolName string
	Policy   string

	Series *metrics.Series // full series including warm-up
	WarmUp time.Duration   // the trace's warm-up prefix

	Aggregates

	FinalPool *cluster.Pool
}

// ErrFinished is returned by Machine mutation methods after Finish: a
// finished machine's aggregates are frozen and must not drift from the pool
// state that produced them.
var ErrFinished = errors.New("sim: machine already finished")

// ErrLiveVM is returned by Create for a VM ID that is already running.
var ErrLiveVM = errors.New("vm id already live")

// Machine is the incremental form of Run: the same replay engine, exposed
// one event at a time so callers that do not hold a complete trace up front
// — the online placement server in internal/serve — can drive it. Run is a
// thin loop over a Machine, which is what makes a served replay byte-
// identical to an offline one: there is only one stepping engine.
//
// The caller feeds events in nondecreasing virtual-time order (times that
// run backwards are clamped to the current time); samples and injector/
// policy ticks fire lazily inside Advance exactly as they do in Run. A
// Machine is not safe for concurrent use — it assumes a single driving
// goroutine, the same single-writer discipline cluster.Pool requires.
//
// A Machine reuses VM objects: the VMs that leave it for good, through Exit
// or Control.Kill, are kept and reused by a Create at a later instant
// (MigrateOut's VM moves on and is not), so a replay allocates about one
// cluster.VM per VM live at its peak, not one per placement. A caller that
// keeps a VM past its exit must keep its ID or a copy.
type Machine struct {
	cfg  Config
	pool *cluster.Pool
	res  *Result
	ctl  *Control

	// gate is the class admission controller (nil: SLO layer off). It is
	// stepped only from the single driving goroutine, so its token streams
	// are replayable at any upstream concurrency.
	gate *slo.Gate

	now        time.Duration
	end        time.Duration
	nextSample time.Duration
	nextTick   time.Duration
	finished   bool

	// Online post-warm-up aggregates, accumulated as each sample fires so
	// Finish is O(1) instead of an O(samples) rescan per metric. The sums
	// add the same values in the same order as Series.After(WarmUp).Mean,
	// so the reported averages are bit-identical to the scan they replace.
	aggN     int
	aggEmpty float64
	aggE2F   float64
	aggPack  float64
	aggCPU   float64
}

// NewMachine validates the configuration and builds a machine positioned at
// time zero. Config.Trace supplies the pool geometry (name, hosts, host
// shape), the warm-up prefix and the measurement horizon; its Records may be
// empty when the caller feeds events itself.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Trace == nil || cfg.Policy == nil {
		return nil, errors.New("sim: trace and policy are required")
	}
	if cfg.Trace.Hosts <= 0 {
		return nil, errors.New("sim: trace has no hosts")
	}
	if cfg.Source != nil && cfg.Trace.Horizon <= 0 {
		// A streamed run cannot derive "until the last exit" without
		// materializing; the geometry must state the measurement end.
		return nil, errors.New("sim: streamed source requires Trace.Horizon")
	}
	pool := cluster.NewPool(cfg.Trace.PoolName, cfg.Trace.Hosts, cfg.Trace.HostShape())
	res := &Result{
		PoolName: cfg.Trace.PoolName,
		Policy:   cfg.Policy.Name(),
		Series:   &metrics.Series{},
		WarmUp:   cfg.Trace.WarmUp,
	}
	ctl := NewControl(pool, cfg.Policy, res)
	if cfg.Tracer != nil {
		// Arm decision capture on the policy; policies without capture
		// support still yield the lifecycle stream, just without scored
		// alternatives.
		scheduler.EnableTrace(cfg.Policy, cfg.Tracer.K())
		ctl.tracer = cfg.Tracer
	}
	if err := cfg.SLO.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		cfg:  cfg,
		pool: pool,
		res:  res,
		ctl:  ctl,
		gate: slo.NewGate(cfg.SLO),
		// Measure until the arrival horizon: past it the pool only drains,
		// which says nothing about steady-state packing quality.
		end:      cfg.Trace.End(),
		nextTick: simtime.TickEvery,
	}, nil
}

// Pool returns the pool under simulation. Reads are free; mutation must go
// through Create/Exit (or Control, for injectors).
func (m *Machine) Pool() *cluster.Pool { return m.pool }

// Now returns the current virtual time (the largest time advanced to).
func (m *Machine) Now() time.Duration { return m.now }

// End returns the measurement horizon: Finish advances to it, and Run stops
// replaying events past it.
func (m *Machine) End() time.Duration { return m.end }

// Counts reports the live placement/exit/capacity-failure counters, valid
// before and after Finish.
func (m *Machine) Counts() (placements, exits, failed int) {
	return m.res.Placements, m.res.Exits, m.res.Failed
}

// ModelCalls reports the policy's lifetime-model call count, or 0 for a
// policy without model telemetry.
func (m *Machine) ModelCalls() int64 {
	if mc, ok := m.cfg.Policy.(interface{ ModelCalls() int64 }); ok {
		return mc.ModelCalls()
	}
	return 0
}

// SLOSummary snapshots the live per-class admission counters and fairness
// index, or nil when the SLO layer is off. Fitness is reported only by
// Finish (the packing aggregates it weighs do not exist mid-run).
func (m *Machine) SLOSummary() *slo.Summary {
	if m.gate == nil {
		return nil
	}
	if m.finished {
		return m.res.SLO
	}
	return m.gate.Summary(0, 0, false)
}

// Advance moves virtual time forward to t, firing every due metric sample
// and injector/policy tick on the way (samples win ties, exactly as in
// Run). Times at or before the current time are a no-op.
func (m *Machine) Advance(t time.Duration) error {
	if m.finished {
		return ErrFinished
	}
	if t < m.now {
		return nil
	}
	for m.nextSample <= t || m.nextTick <= t {
		if m.nextSample <= m.nextTick {
			smp := metrics.Snapshot(m.pool, m.nextSample)
			if err := m.res.Series.Add(smp); err != nil {
				return err
			}
			if smp.Time >= m.res.WarmUp {
				m.aggN++
				m.aggEmpty += smp.EmptyHostFrac
				m.aggE2F += smp.EmptyToFree
				m.aggPack += smp.PackingDensity
				m.aggCPU += smp.CPUUtil
			}
			if m.cfg.CheckInvariants {
				if err := m.pool.CheckInvariants(); err != nil {
					return fmt.Errorf("sim: at %v: %w", m.nextSample, err)
				}
			}
			m.nextSample += simtime.SampleEvery
		} else {
			m.ctl.now = m.nextTick // stamp injector-driven trace events
			for _, in := range m.cfg.Injectors {
				in.Inject(m.ctl, m.nextTick)
			}
			m.cfg.Policy.OnTick(m.pool, m.nextTick)
			m.nextTick += simtime.TickEvery
		}
	}
	m.now = t
	return nil
}

// Create advances to at and schedules a VM for the record. It returns the
// chosen host, or (nil, nil) when no feasible host exists (counted in
// Result.Failed, as in Run). With Config.SLO set, the record's class is
// charged against its token bucket first — after the time advance, so both
// arms see identical refill windows — and an over-budget arrival returns a
// *slo.RejectError without touching policy or pool state. A VM ID that is
// already running is refused with ErrLiveVM before anything else moves, time
// included. Any other scheduling or placement error is fatal to the run.
func (m *Machine) Create(rec trace.Record, at time.Duration) (*cluster.Host, error) {
	if !m.finished && m.pool.VM(rec.ID) != nil {
		return nil, fmt.Errorf("sim: create vm %d: %w", rec.ID, ErrLiveVM)
	}
	at, err := m.begin(at)
	if err != nil {
		return nil, err
	}
	var class string
	if m.gate != nil {
		if class, err = slo.ParseClass(rec.Class); err != nil {
			return nil, err
		}
		if ok, retry := m.gate.Admit(class, at); !ok {
			return nil, &slo.RejectError{Class: class, RetryAt: retry}
		}
	}
	vm := m.ctl.free.get(at)
	*vm = cluster.VM{
		ID:           rec.ID,
		Shape:        rec.Shape,
		Feat:         rec.Feat,
		Class:        class,
		Created:      at,
		TrueLifetime: rec.Lifetime,
	}
	h, err := m.place(vm, at, "place")
	if err != nil {
		return nil, err
	}
	if h == nil {
		m.res.Failed++
		if m.gate != nil {
			m.gate.Class(class).Failed++
		}
		if m.cfg.Tracer != nil {
			m.recordDecision(ptrace.KindFail, rec, at, -1)
		}
		return nil, nil
	}
	m.res.Placements++
	if m.gate != nil {
		m.gate.Class(class).Placed++
	}
	if m.cfg.Tracer != nil {
		m.recordDecision(ptrace.KindPlace, rec, at, h.ID)
	}
	return h, nil
}

// recordDecision emits a Place/Fail decision: the creation record (replay
// input) plus a copy of the policy's capture — the scheduler reuses its
// capture buffers across calls, so the alternatives are copied out here.
func (m *Machine) recordDecision(kind ptrace.Kind, rec trace.Record, at time.Duration, host cluster.HostID) {
	d := ptrace.Decision{Kind: kind, T: at, VM: rec.ID, Host: host, Level: -1, Rec: &rec}
	if cp := scheduler.CaptureOf(m.cfg.Policy); cp != nil {
		d.Feasible = cp.Feasible
		d.Level = cp.Level
		if len(cp.Alts) > 0 {
			d.Alts = append(make([]ptrace.Alt, 0, len(cp.Alts)), cp.Alts...)
		}
	}
	m.cfg.Tracer.Record(d)
}

// Exit advances to at and removes the VM, notifying the policy, and keeps
// its object for a later Create. It returns false for VMs not currently
// running (never scheduled, already exited, or killed by an injector) — the
// same silent skip Run applies to the EXIT events of capacity-failed VMs.
func (m *Machine) Exit(id cluster.VMID, at time.Duration) (bool, error) {
	at, err := m.begin(at)
	if err != nil {
		return false, err
	}
	h, vm, err := m.ctl.depart(id, at)
	if err != nil {
		return false, nil // not running: never scheduled (capacity failure)
	}
	m.res.Exits++
	if m.gate != nil {
		// vm.Class survives migrations, so a VM admitted elsewhere still
		// exits under its own class (empty for pre-gate VMs → standard).
		cls, err := slo.ParseClass(vm.Class)
		if err != nil {
			cls = slo.ClassStandard
		}
		m.gate.Class(cls).Exited++
	}
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Record(ptrace.Decision{Kind: ptrace.KindExit, T: at, VM: id, Host: h.ID, Level: -1})
	}
	m.ctl.free.put(vm, at, m.pool.NumVMs())
	return true, nil
}

// AddHosts advances to at and grows the pool by n hosts of the trace's host
// shape — the online form of a capacity delivery. New hosts take IDs past
// the current maximum (see cluster.Pool.AddHosts for the density contract).
func (m *Machine) AddHosts(n int, at time.Duration) error {
	at, err := m.begin(at)
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("sim: add %d hosts", n)
	}
	m.pool.AddHosts(n, m.cfg.Trace.HostShape())
	return nil
}

// RemoveHost advances to at and retires an empty host from the pool. Hosts
// still running VMs refuse removal — drain them (migrate or wait for exits)
// first — and so do hosts an injector has withdrawn, whose claim must find
// them at its restore (cluster.Pool.RemoveHost).
func (m *Machine) RemoveHost(id cluster.HostID, at time.Duration) error {
	at, err := m.begin(at)
	if err != nil {
		return err
	}
	return m.pool.RemoveHost(id)
}

// MigrateOut advances to at and hands a running VM out of this machine —
// the source half of a cross-cell migration. The policy observes the
// departure through its exit hook (the host's capacity frees exactly as on
// a natural exit) but the VM is counted as migrated, not exited, and the
// returned VM — creation time and ground-truth lifetime intact — is ready
// for MigrateIn on the destination machine. ok is false for VMs not
// currently running (never placed, already exited, or killed).
func (m *Machine) MigrateOut(id cluster.VMID, at time.Duration) (vm *cluster.VM, ok bool, err error) {
	at, err = m.begin(at)
	if err != nil {
		return nil, false, err
	}
	if _, vm, err = m.ctl.depart(id, at); err != nil {
		return nil, false, nil // not running
	}
	m.res.MigratedOut++
	return vm, true, nil
}

// MigrateIn advances to at and admits a VM handed over by another machine's
// MigrateOut: the policy schedules it like a fresh arrival (and observes the
// placement), but it is counted as migrated, not placed. A nil vm is a
// sequencing no-op that only advances time — the caller's source machine
// reported the VM gone. placed is false when no feasible host exists; the
// VM is then lost (it already left its source) and counted in Failed.
func (m *Machine) MigrateIn(vm *cluster.VM, at time.Duration) (host *cluster.Host, placed bool, err error) {
	at, err = m.begin(at)
	if err != nil {
		return nil, false, err
	}
	if vm == nil {
		return nil, false, nil
	}
	host, err = m.place(vm, at, "migrate-in")
	switch {
	case err != nil:
		return nil, false, err
	case host == nil:
		m.res.Failed++
		return nil, false, nil
	}
	m.res.MigratedIn++
	return host, true, nil
}

// begin is every mutator's prologue: it refuses a finished machine, clamps
// at forward to the current time and advances there. It returns the clamped
// time.
func (m *Machine) begin(at time.Duration) (time.Duration, error) {
	if m.finished {
		return at, ErrFinished
	}
	at = max(at, m.now)
	return at, m.Advance(at)
}

// place asks the policy for a host, places vm there and tells the policy. A
// nil host with no error means no feasible host; the caller counts it.
func (m *Machine) place(vm *cluster.VM, at time.Duration, what string) (*cluster.Host, error) {
	h, err := m.cfg.Policy.Schedule(m.pool, vm, at)
	if err != nil {
		if errors.Is(err, scheduler.ErrNoCapacity) {
			return nil, nil
		}
		return nil, err
	}
	if err := m.pool.Place(vm, h); err != nil {
		return nil, fmt.Errorf("sim: %s vm %d: %w", what, vm.ID, err)
	}
	m.cfg.Policy.OnPlaced(m.pool, h, vm, at)
	return h, nil
}

// Finish advances to the measurement horizon, computes the post-warm-up
// aggregates, and freezes the machine: further Advance/Create/Exit calls
// return ErrFinished, and repeated Finish calls return the same Result.
func (m *Machine) Finish() (*Result, error) {
	if m.finished {
		return m.res, nil
	}
	if err := m.Advance(m.end); err != nil {
		return nil, err
	}
	// Aggregates come from the online accumulators (see Advance), which sum
	// in sample order exactly like Series.After(WarmUp).Mean would.
	if m.aggN > 0 {
		n := float64(m.aggN)
		m.res.AvgEmptyHostFrac = m.aggEmpty / n
		m.res.AvgEmptyToFree = m.aggE2F / n
		m.res.AvgPackingDensity = m.aggPack / n
		m.res.AvgCPUUtil = m.aggCPU / n
	}
	m.res.ModelCalls = m.ModelCalls()
	if m.gate != nil {
		// Drain-path fitness: the latency term is neutral (1) so the score,
		// like every other drain byte, is identical online and offline.
		m.res.SLO = m.gate.Summary(m.res.AvgPackingDensity, m.res.AvgEmptyToFree, true)
	}
	m.res.FinalPool = m.pool
	m.finished = true
	return m.res, nil
}

// Run replays the trace against the policy. The event sequence comes from
// Config.Source when set (streamed replay) and from Trace.Records
// otherwise; both paths drive the identical event order through the same
// Machine, so they are byte-identical on the same record sequence. One
// goroutine of Run's own reads the source ahead of the Machine (see feed);
// Run joins it before it returns, and raises a panic of the source again on
// the caller's goroutine.
func Run(cfg Config) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	f := startFeed(cfg.Source, cfg.Trace, m.end)
	defer f.join()
	for b := range f.full {
		for i := range b {
			if err := m.apply(&b[i]); err != nil {
				return nil, err
			}
		}
		f.free <- b
	}
	if err := f.join(); err != nil {
		return nil, fmt.Errorf("sim: trace stream: %w", err)
	}
	return m.Finish()
}

// apply replays one trace event. A create the SLO layer refuses is counted
// per class and skipped: the VM never ran.
func (m *Machine) apply(ev *trace.Event) error {
	switch ev.Kind {
	case trace.EventCreate:
		if _, err := m.Create(ev.Rec, ev.Time); err != nil && !slo.IsReject(err) {
			return err
		}
	case trace.EventExit:
		if _, err := m.Exit(ev.Rec.ID, ev.Time); err != nil {
			return err
		}
	}
	return nil
}
