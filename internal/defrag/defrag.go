package defrag

import (
	"slices"
	"sort"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/sim"
)

// Strategy selects the migration ordering.
type Strategy int

// Orderings: OrderTrace evacuates VMs in creation order; OrderShuffled in a
// deterministic pseudo-random order (a closer analogue of the paper's
// baseline, a production migration list whose order is arbitrary with
// respect to lifetime, §5.1); OrderLARS migrates the longest predicted
// remaining lifetime first (Algorithm 1).
const (
	OrderTrace Strategy = iota
	OrderShuffled
	OrderLARS
)

// String renders the strategy name.
func (s Strategy) String() string {
	switch s {
	case OrderLARS:
		return "lars"
	case OrderShuffled:
		return "shuffled"
	default:
		return "trace-order"
	}
}

// Config configures the engine. Migration targets come from the run's own
// policy through sim.Control, the algorithm used for initial placement
// (§4.4).
type Config struct {
	Strategy Strategy

	// Pred provides the remaining-lifetime repredictions LARS sorts by.
	Pred model.Predictor

	// Threshold triggers defragmentation when the pool's empty-host
	// fraction drops below it. Default 0.06.
	Threshold float64

	// HostsPerRound bounds how many hosts drain per trigger. Default 2.
	HostsPerRound int

	// CheckEvery is the trigger cadence. Default 1h.
	CheckEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.06
	}
	if c.HostsPerRound == 0 {
		c.HostsPerRound = 2
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = time.Hour
	}
	return c
}

// migrationTime is the per-VM copy duration during which both hosts are
// busy (§4.4); batchLimit is the number of concurrent copies (§5.1), the
// slot count ReplayPlan uses too.
const (
	migrationTime = 20 * time.Minute
	batchLimit    = 3
)

// Stats counts defragmentation activity. Each planned migration lands in at
// most one of Performed, Saved and Abandoned: a move whose copy restarts
// after its target was withdrawn or refused it counts once.
type Stats struct {
	Planned    int // VM migrations enqueued
	Performed  int // migrations whose copy started
	Saved      int // planned migrations obviated by a natural VM exit
	Abandoned  int // migrations dropped because no target host existed
	HostsFreed int // drained hosts that became empty
	Rounds     int // defragmentation triggers
}

// migration is one planned VM move.
type migration struct {
	vmID cluster.VMID
	src  cluster.HostID

	// in-flight state; dst stays set once the first copy started
	dst         *cluster.Host
	reservation *cluster.Reservation // the copy window's hold on dst
	done        time.Duration
}

// Engine is a sim.Injector implementing the defragmenter.
type Engine struct {
	cfg   Config
	Stats Stats

	// Plan records every drain decision (trigger time, host, VM set with
	// predicted remaining lifetimes). ReplayPlan re-executes it under a
	// different ordering strategy without feedback, the paper's Table 2
	// methodology.
	Plan []PlannedBatch

	pending   []*migration
	inflight  []*migration
	draining  []cluster.HostID // withdrawn hosts, ascending
	nextCheck time.Duration
}

// New builds an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults()}
}

// Inject implements sim.Injector: complete due migrations, periodically
// check the trigger condition, reap saved migrations, start new ones and
// return drained hosts to service.
func (e *Engine) Inject(ctl *sim.Control, now time.Duration) {
	e.completeDue(ctl, now)
	if now >= e.nextCheck {
		e.nextCheck = now + e.cfg.CheckEvery
		if ctl.Pool().EmptyHostFraction() < e.cfg.Threshold {
			e.trigger(ctl, now)
		}
	}
	e.reapSavedAndStart(ctl, now)
	e.releaseEmptyHosts(ctl)
}

// trigger selects candidate hosts and enqueues their VMs for migration.
func (e *Engine) trigger(ctl *sim.Control, now time.Duration) {
	cands := e.candidates(ctl.Pool())
	if len(cands) == 0 {
		return
	}
	e.Stats.Rounds++
	for _, h := range cands {
		ctl.Withdraw(h.ID) // stop scheduling new VMs onto it (Algorithm 1)
		e.draining = append(e.draining, h.ID)
		// One prediction per VM, in ID order = creation order (the
		// trace-order baseline).
		batch := PlannedBatch{Trigger: now, Host: h.ID}
		for _, vm := range h.VMs() {
			batch.VMs = append(batch.VMs, PlannedVM{
				ID:        vm.ID,
				Exit:      vm.TrueExit(),
				Remaining: e.cfg.Pred.PredictRemaining(vm, vm.Uptime(now)),
			})
		}
		order(batch.VMs, e.cfg.Strategy)
		for _, vm := range batch.VMs {
			e.pending = append(e.pending, &migration{vmID: vm.ID, src: h.ID})
			e.Stats.Planned++
		}
		e.Plan = append(e.Plan, batch)
	}
	slices.Sort(e.draining)
}

// candidates picks up to HostsPerRound hosts to drain: fewest VMs first,
// then most free capacity ("preferring hosts with few VMs and excess
// resources", §4.4). Hosts out of service, this engine's drains included,
// are not candidates.
func (e *Engine) candidates(pool *cluster.Pool) []*cluster.Host {
	var out []*cluster.Host
	for _, h := range pool.Hosts() {
		if h.Empty() || h.Unavailable {
			continue
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NumVMs() != out[j].NumVMs() {
			return out[i].NumVMs() < out[j].NumVMs()
		}
		if fi, fj := out[i].Free().CPUMilli, out[j].Free().CPUMilli; fi != fj {
			return fi > fj
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > e.cfg.HostsPerRound {
		out = out[:e.cfg.HostsPerRound]
	}
	return out
}

// completeDue finishes in-flight migrations whose copy window elapsed.
func (e *Engine) completeDue(ctl *sim.Control, now time.Duration) {
	pool := ctl.Pool()
	e.inflight = slices.DeleteFunc(e.inflight, func(m *migration) bool {
		if m.done > now {
			return false
		}
		// Free the reserved capacity on the target. A VM that exited
		// mid-copy has nothing left to move. One still alive moves, unless
		// its target was withdrawn during the copy (a maintenance drain) or
		// cannot take it anymore: then it retries later via pending.
		_ = ctl.Release(m.reservation) // held since the copy started
		if pool.HostOf(m.vmID) != nil && (m.dst.Unavailable || ctl.Migrate(m.vmID, m.dst, now) != nil) {
			e.pending = append(e.pending, m)
		}
		return true
	})
}

// reapSavedAndStart drops pending migrations whose VM already exited
// (saved!) and starts new ones while batch slots are free. A move whose
// copy already ran once (m.dst set) was counted as performed and counts
// nowhere else.
func (e *Engine) reapSavedAndStart(ctl *sim.Control, now time.Duration) {
	pool := ctl.Pool()
	e.pending = slices.DeleteFunc(e.pending, func(m *migration) bool {
		gone := pool.HostOf(m.vmID) == nil
		if gone && m.dst == nil {
			e.Stats.Saved++ // exited before its migration began (Table 2)
		}
		return gone
	})

	for len(e.inflight) < batchLimit && len(e.pending) > 0 {
		m := e.pending[0]
		e.pending = e.pending[1:]
		vm := pool.VM(m.vmID)

		// Target selection uses the run's policy, the algorithm of initial
		// placement; with NILAS/LAVA this repredicts the VM's remaining
		// lifetime (§4.4). Reserve the shape on the target for the copy
		// window: live migration consumes capacity on both hosts.
		var res *cluster.Reservation
		dst, err := ctl.Schedule(vm, now)
		if err == nil {
			res, err = ctl.Reserve(vm.Shape, dst)
		}
		if err != nil {
			// No capacity anywhere right now: abandon this VM's migration
			// for this round rather than deadlocking the queue.
			if m.dst == nil {
				e.Stats.Abandoned++
			}
			continue
		}
		if m.dst == nil {
			e.Stats.Performed++
		}
		m.dst = dst
		m.reservation = res
		m.done = now + migrationTime
		e.inflight = append(e.inflight, m)
	}
}

// releaseEmptyHosts returns drained hosts that became empty to service, in
// ascending host ID.
func (e *Engine) releaseEmptyHosts(ctl *sim.Control) {
	keep := e.draining[:0]
	for _, id := range e.draining {
		h := ctl.Pool().Host(id)
		if h == nil || !h.Empty() || e.hasWork(id) {
			keep = append(keep, id)
			continue
		}
		ctl.Restore(id)
		e.Stats.HostsFreed++
	}
	e.draining = keep
}

// hasWork reports whether any pending or in-flight migration still
// references the host as source.
func (e *Engine) hasWork(id cluster.HostID) bool {
	from := func(m *migration) bool { return m.src == id }
	return slices.ContainsFunc(e.pending, from) || slices.ContainsFunc(e.inflight, from)
}
