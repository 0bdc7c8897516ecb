package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/sim"
	"lava/internal/trace"
)

// Event is one typed scenario event. Concrete events additionally implement
// TraceEvent, TickEvent or ModelEvent depending on the layer they act at.
type Event interface {
	// Kind names the event type, e.g. "surge" or "drain-wave".
	Kind() string
	// Validate checks the event's parameters.
	Validate() error
}

// TraceEvent rewrites the arrival stream before the simulation starts.
type TraceEvent interface {
	Event
	// ComposeTrace returns a new trace with the event applied; the input
	// trace is shared read-only state and must not be mutated. Randomness
	// comes exclusively from rng.
	ComposeTrace(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, error)
}

// TickEvent compiles into a simulator tick injector.
type TickEvent interface {
	Event
	// NewInjector returns a fresh injector carrying this run's mutable
	// state; every simulation builds its own (the determinism rule for
	// batch jobs).
	NewInjector(seed int64) sim.Injector
}

// ModelEvent wraps the lifetime predictor a policy consumes.
type ModelEvent interface {
	Event
	WrapModel(p model.Predictor, seed int64) model.Predictor
}

// Spec is a named, seeded scenario: an ordered list of events composed onto
// a trace.
type Spec struct {
	Name   string
	Seed   int64
	Events []Event
}

// Validate checks every event.
func (s Spec) Validate() error {
	for i, ev := range s.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("scenario %s: event %d (%s): %w", s.Name, i, ev.Kind(), err)
		}
	}
	return nil
}

// ComposeTrace applies the spec's trace-level events to base and returns
// the composed trace. The base trace is never mutated; with no trace-level
// events it is returned as-is. Deterministic in (base, Spec.Seed).
func (s Spec) ComposeTrace(base *trace.Trace) (*trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := base
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5ca1ab1e))
	for i, ev := range s.Events {
		te, ok := ev.(TraceEvent)
		if !ok {
			continue
		}
		next, err := te.ComposeTrace(out, rng)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: event %d (%s): %w", s.Name, i, ev.Kind(), err)
		}
		out = next
	}
	return out, nil
}

// Injectors returns fresh tick injectors for one simulation of cell `cell`
// (use 0 for single-cell runs). Each event gets a seed derived stably from
// (Spec.Seed, event index, cell), so per-cell event streams are
// reproducible and independent of execution order.
func (s Spec) Injectors(cell int) []sim.Injector {
	var out []sim.Injector
	for i, ev := range s.Events {
		if te, ok := ev.(TickEvent); ok {
			out = append(out, te.NewInjector(s.Seed+int64(i)*7919+int64(cell)*104729))
		}
	}
	return out
}

// WrapModel applies the spec's model-level events to a predictor. Pass the
// result to lifetime-aware policies; lifetime-unaware ones take nil and
// skip this.
func (s Spec) WrapModel(p model.Predictor) model.Predictor {
	for i, ev := range s.Events {
		if me, ok := ev.(ModelEvent); ok {
			p = me.WrapModel(p, s.Seed+int64(i))
		}
	}
	return p
}

// --- Surge: arrival bursts ------------------------------------------------

// BurstLaw is the temporal shape of a surge's extra arrivals.
type BurstLaw int

// Burst laws.
const (
	// LawSquare spreads the burst uniformly over the window.
	LawSquare BurstLaw = iota
	// LawSpike front-loads the burst with an exponential decay (flash
	// crowd): most extra arrivals land in the first quarter of the window.
	LawSpike
	// LawRamp back-loads the burst with linearly increasing intensity
	// (gradual build-up toward a deadline).
	LawRamp
)

// String renders the law name.
func (l BurstLaw) String() string {
	switch l {
	case LawSpike:
		return "spike"
	case LawRamp:
		return "ramp"
	default:
		return "square"
	}
}

// offset draws one arrival offset in [0, window) under the law.
func (l BurstLaw) offset(rng *rand.Rand, window time.Duration) time.Duration {
	u := rng.Float64()
	switch l {
	case LawSpike:
		// Exponential with tau = window/4, truncated to the window by
		// inverse-CDF: F(t) = (1-e^{-t/tau}) / (1-e^{-w/tau}).
		tau := float64(window) / 4
		t := -tau * math.Log(1-u*(1-math.Exp(-float64(window)/tau)))
		return time.Duration(t)
	case LawRamp:
		// Density proportional to elapsed window time: t = w*sqrt(u).
		return time.Duration(float64(window) * math.Sqrt(u))
	default:
		return time.Duration(u * float64(window))
	}
}

// Surge multiplies the arrival rate inside a window by Factor. Extra VMs
// resample the trace's own empirical law — each clones the shape, features
// and lifetime of a uniformly drawn existing record — so the burst stresses
// capacity without distorting the workload distribution.
type Surge struct {
	At     time.Duration // window start
	For    time.Duration // window length
	Factor float64       // arrival-rate multiplier inside the window (> 1)
	Law    BurstLaw      // temporal shape of the extra arrivals
}

// Kind implements Event.
func (s Surge) Kind() string { return "surge" }

// Validate implements Event.
func (s Surge) Validate() error {
	if s.For <= 0 {
		return fmt.Errorf("surge: non-positive window %v", s.For)
	}
	if s.Factor <= 1 {
		return fmt.Errorf("surge: factor %v must exceed 1", s.Factor)
	}
	return nil
}

// ComposeTrace implements TraceEvent.
func (s Surge) ComposeTrace(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, error) {
	if len(tr.Records) == 0 {
		return tr, nil
	}
	var inWindow int
	var maxID cluster.VMID
	for _, r := range tr.Records {
		if r.Arrival >= s.At && r.Arrival < s.At+s.For {
			inWindow++
		}
		if r.ID > maxID {
			maxID = r.ID
		}
	}
	extra := int(math.Round((s.Factor - 1) * float64(inWindow)))
	if extra == 0 {
		return tr, nil
	}
	out := *tr
	out.Records = make([]trace.Record, len(tr.Records), len(tr.Records)+extra)
	copy(out.Records, tr.Records)
	for i := 0; i < extra; i++ {
		rec := tr.Records[rng.Intn(len(tr.Records))]
		rec.ID = maxID + 1 + cluster.VMID(i)
		rec.Arrival = s.At + s.Law.offset(rng, s.For)
		out.Records = append(out.Records, rec)
	}
	out.Sort()
	return &out, nil
}

// --- DrainWave: rolling maintenance drains --------------------------------

// DrainWave models a rolling maintenance campaign: Waves consecutive host
// ranges are drained (made unavailable to new placements; running VMs
// finish naturally), each for For, starting Every apart. Ranges are
// expressed as a fraction of the pool so one event applies to any cell
// size.
type DrainWave struct {
	At    time.Duration // first wave start
	Every time.Duration // cadence between wave starts
	Waves int           // number of waves
	Frac  float64       // fraction of the pool drained per wave, in (0, 1]
	For   time.Duration // how long each wave's hosts stay drained
}

// Kind implements Event.
func (d DrainWave) Kind() string { return "drain-wave" }

// Validate implements Event.
func (d DrainWave) Validate() error {
	if d.Waves <= 0 {
		return fmt.Errorf("drain-wave: no waves")
	}
	if d.Every <= 0 || d.For <= 0 {
		return fmt.Errorf("drain-wave: non-positive cadence %v or duration %v", d.Every, d.For)
	}
	if d.Frac <= 0 || d.Frac > 1 {
		return fmt.Errorf("drain-wave: fraction %v out of (0,1]", d.Frac)
	}
	return nil
}

// NewInjector implements TickEvent.
func (d DrainWave) NewInjector(int64) sim.Injector {
	return &drainInjector{ev: d}
}

// drainInjector is the per-run state of one DrainWave. Withdrawals are
// drain claims the pool counts (sim.Control.Withdraw), so overlapping waves
// (Frac*Waves > 1, or For > Every) — and overlaps with other injectors'
// events — keep a host drained until the last claim on it releases.
type drainInjector struct {
	ev    DrainWave
	waves [][]cluster.HostID // per started wave: hosts the wave claims
	ended int                // waves already released
}

// Inject implements sim.Injector.
func (in *drainInjector) Inject(ctl *sim.Control, now time.Duration) {
	hosts := ctl.Pool().Hosts()
	n := len(hosts)
	per := int(math.Round(in.ev.Frac * float64(n)))
	if per < 1 {
		per = 1
	}
	// Release waves whose drain window ended, in wave order.
	for w := in.ended; w < len(in.waves); w++ {
		if now < in.ev.At+time.Duration(w)*in.ev.Every+in.ev.For {
			break
		}
		for _, id := range in.waves[w] {
			mustClaim(ctl.Restore(id))
		}
		in.ended = w + 1
	}
	// Start due waves. Each wave claims the next contiguous range of the
	// pool's hosts in ID order, wrapping around.
	for w := len(in.waves); w < in.ev.Waves; w++ {
		if now < in.ev.At+time.Duration(w)*in.ev.Every {
			break
		}
		ids := make([]cluster.HostID, 0, per)
		for i := 0; i < per; i++ {
			id := hosts[(w*per+i)%n].ID
			mustClaim(ctl.Withdraw(id))
			ids = append(ids, id)
		}
		in.waves = append(in.waves, ids)
	}
}

// mustClaim panics on a refused withdrawal or restore. The injectors claim
// member hosts and restore only their own claims, and the pool refuses to
// remove a claimed host, so a refusal is a bug in the injector.
func mustClaim(err error) {
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
}

// --- Failures: correlated host failures -----------------------------------

// Failures fails a contiguous block of hosts at once (a rack or power
// domain): their VMs are killed through the policy's exit hook and the
// hosts stay out of service for RepairFor (0 means forever). The block's
// position is drawn from the injector seed.
type Failures struct {
	At        time.Duration
	Frac      float64       // fraction of hosts failing together, in (0, 1]
	RepairFor time.Duration // time to repair; 0 = hosts never return
}

// Kind implements Event.
func (f Failures) Kind() string { return "failures" }

// Validate implements Event.
func (f Failures) Validate() error {
	if f.Frac <= 0 || f.Frac > 1 {
		return fmt.Errorf("failures: fraction %v out of (0,1]", f.Frac)
	}
	return nil
}

// NewInjector implements TickEvent.
func (f Failures) NewInjector(seed int64) sim.Injector {
	return &failureInjector{ev: f, seed: seed}
}

// failureInjector is the per-run state of one Failures event.
type failureInjector struct {
	ev       Failures
	seed     int64
	fired    bool
	repaired bool
	failed   []cluster.HostID
}

// Inject implements sim.Injector.
func (in *failureInjector) Inject(ctl *sim.Control, now time.Duration) {
	if !in.fired && now >= in.ev.At {
		in.fired = true
		pool := ctl.Pool()
		n := pool.NumHosts()
		count := int(math.Round(in.ev.Frac * float64(n)))
		if count < 1 {
			count = 1
		}
		start := rand.New(rand.NewSource(in.seed)).Intn(n)
		for i := 0; i < count; i++ {
			h := pool.Hosts()[(start+i)%n]
			for _, vm := range h.VMs() { // sorted by ID: deterministic kill order
				if err := ctl.Kill(vm.ID, now); err != nil {
					panic(fmt.Sprintf("scenario: failures: %v", err))
				}
			}
			mustClaim(ctl.Withdraw(h.ID))
			in.failed = append(in.failed, h.ID)
		}
	}
	if in.fired && !in.repaired && in.ev.RepairFor > 0 && now >= in.ev.At+in.ev.RepairFor {
		in.repaired = true
		for _, id := range in.failed {
			mustClaim(ctl.Restore(id))
		}
	}
}

// --- Crunch: capacity shrinkage -------------------------------------------

// Crunch withdraws the highest-ID fraction of hosts from service (a
// capacity crunch: fleet reallocation, supply shortfall). Running VMs on
// withdrawn hosts finish naturally but the hosts take no new placements
// until restoration at At+For (For 0 = permanent).
type Crunch struct {
	At   time.Duration
	Frac float64       // fraction of hosts withdrawn, in (0, 1]
	For  time.Duration // shrinkage duration; 0 = permanent
}

// Kind implements Event.
func (c Crunch) Kind() string { return "crunch" }

// Validate implements Event.
func (c Crunch) Validate() error {
	if c.Frac <= 0 || c.Frac > 1 {
		return fmt.Errorf("crunch: fraction %v out of (0,1]", c.Frac)
	}
	return nil
}

// NewInjector implements TickEvent.
func (c Crunch) NewInjector(int64) sim.Injector {
	return &crunchInjector{ev: c}
}

// crunchInjector is the per-run state of one Crunch.
type crunchInjector struct {
	ev        Crunch
	fired     bool
	restored  bool
	withdrawn []cluster.HostID
}

// Inject implements sim.Injector.
func (in *crunchInjector) Inject(ctl *sim.Control, now time.Duration) {
	if !in.fired && now >= in.ev.At {
		in.fired = true
		hosts := ctl.Pool().Hosts()
		count := int(math.Round(in.ev.Frac * float64(len(hosts))))
		if count < 1 {
			count = 1
		}
		for _, h := range hosts[len(hosts)-count:] {
			mustClaim(ctl.Withdraw(h.ID))
			in.withdrawn = append(in.withdrawn, h.ID)
		}
	}
	if in.fired && !in.restored && in.ev.For > 0 && now >= in.ev.At+in.ev.For {
		in.restored = true
		for _, id := range in.withdrawn {
			mustClaim(ctl.Restore(id))
		}
	}
}

// --- ModelSwap: mispredicting model push ----------------------------------

// ModelSwap models a bad model push: from At onward every prediction comes
// from an accuracy-degraded noisy oracle (Appendix G.1) instead of the
// run's real predictor. The adaptation mechanisms (NILAS repredictions,
// LAVA deadlines) are exactly what this scenario stresses.
type ModelSwap struct {
	At       time.Duration
	Accuracy float64 // post-swap model accuracy, in [0, 1]
}

// Kind implements Event.
func (m ModelSwap) Kind() string { return "model-swap" }

// Validate implements Event.
func (m ModelSwap) Validate() error {
	if m.Accuracy < 0 || m.Accuracy > 1 {
		return fmt.Errorf("model-swap: accuracy %v out of [0,1]", m.Accuracy)
	}
	return nil
}

// WrapModel implements ModelEvent.
func (m ModelSwap) WrapModel(p model.Predictor, seed int64) model.Predictor {
	return &swapPredictor{
		at:     m.At,
		before: p,
		after:  &model.NoisyOracle{Accuracy: m.Accuracy, Seed: seed},
	}
}

// swapPredictor serves `before` until the swap time and `after` from then
// on. Wall-clock time is reconstructed as creation + uptime, so the wrapper
// needs no clock plumbing and stays safe for concurrent use.
type swapPredictor struct {
	at            time.Duration
	before, after model.Predictor
}

// Name implements model.Predictor.
func (s *swapPredictor) Name() string {
	return s.before.Name() + ">" + s.after.Name()
}

// PredictRemaining implements model.Predictor.
func (s *swapPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	if vm.Created+uptime >= s.at {
		return s.after.PredictRemaining(vm, uptime)
	}
	return s.before.PredictRemaining(vm, uptime)
}
