// Package lava is the public facade of the LAVA reproduction: lifetime-aware
// VM allocation with learned distributions and adaptation to mispredictions
// (MLSys 2025).
//
// The facade wires together the internal packages for the common end-to-end
// flow — generate (or load) a trace, pick a lifetime model and a scheduling
// policy, replay the trace through the simulator, and read the bin-packing
// metrics the paper reports:
//
//	tr, _ := lava.GenerateTrace(lava.TraceConfig{Hosts: 64, TargetUtil: 0.65,
//	    Days: 14, PrefillDays: 10, Seed: 1})
//	pred, _ := lava.TrainModel(tr, lava.ModelGBDT)
//	res, _ := lava.Simulate(tr, lava.PolicyLAVA, pred)
//	fmt.Println(res.AvgEmptyHostFrac)
//
// Lower-level control (custom scoring chains, defragmentation engines,
// stranding probes, causal analysis) is available in the internal packages;
// see DESIGN.md for the map.
package lava

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"time"

	"lava/internal/cell"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/runner"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
	"lava/internal/workload"
)

// Trace is a replayable VM trace.
type Trace = trace.Trace

// Result is a simulation outcome.
type Result = sim.Result

// Predictor estimates remaining VM lifetimes.
type Predictor = model.Predictor

// TraceConfig configures synthetic trace generation.
type TraceConfig struct {
	Name        string  // pool name (default "pool")
	Hosts       int     // number of hosts (default 64)
	TargetUtil  float64 // steady-state CPU utilization (default 0.65)
	Days        int     // steady-state days to generate (default 14)
	PrefillDays int     // warm-up days before the measured window (default 10)
	Seed        int64
	E2          bool // use the cost-optimized E2 mix instead of C2
}

// GenerateTrace builds a production-like synthetic trace (see
// internal/workload for the distributional guarantees).
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 64
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.65
	}
	if cfg.Days == 0 {
		cfg.Days = 14
	}
	if cfg.PrefillDays == 0 {
		cfg.PrefillDays = 10
	}
	var mix []workload.TypeSpec
	if cfg.E2 {
		mix = workload.E2Mix()
	}
	return workload.Generate(workload.PoolSpec{
		Name:       cfg.Name,
		Zone:       "zone-a",
		Hosts:      cfg.Hosts,
		TargetUtil: cfg.TargetUtil,
		Duration:   time.Duration(cfg.Days) * simtime.Day,
		Prefill:    time.Duration(cfg.PrefillDays) * simtime.Day,
		Seed:       cfg.Seed,
		Diurnal:    0.3,
		Mix:        mix,
	})
}

// ModelKind selects a lifetime model family.
type ModelKind string

// Supported model families (Table 4).
const (
	ModelGBDT   ModelKind = "gbdt"   // production model: gradient-boosted trees
	ModelKM     ModelKind = "km"     // stratified Kaplan-Meier lookup table: the dist table named "stratified-km"
	ModelDist   ModelKind = "dist"   // empirical-distribution table
	ModelOracle ModelKind = "oracle" // ground-truth lifetimes
)

// TrainModel fits a lifetime model of the given kind on the trace's records.
// ModelOracle needs no training and ignores the trace.
func TrainModel(tr *Trace, kind ModelKind) (Predictor, error) {
	if tr == nil {
		if kind != ModelOracle {
			return nil, fmt.Errorf("lava: model %q needs a trace to train on", kind)
		}
		tr = &Trace{}
	}
	return model.Train(string(kind), tr.Records, 400)
}

// PolicyKind selects a scheduling algorithm.
type PolicyKind string

// Supported policies.
const (
	PolicyWasteMin PolicyKind = "wastemin"  // production baseline (no lifetimes)
	PolicyBestFit  PolicyKind = "bestfit"   // classic best fit
	PolicyLABinary PolicyKind = "la-binary" // Barbalho et al., one-shot predictions
	PolicyNILAS    PolicyKind = "nilas"     // non-invasive lifetime-aware scheduling
	PolicyLAVA     PolicyKind = "lava"      // lifetime-aware VM allocation
)

// NewPolicy builds a policy over the given predictor with the default
// 1-minute host-score cache. The lifetime-unaware baselines accept a nil
// predictor.
func NewPolicy(kind PolicyKind, pred Predictor) (scheduler.Policy, error) {
	return scheduler.New(string(kind), pred)
}

// Simulate replays the trace under the policy and returns the metrics.
func Simulate(tr *Trace, kind PolicyKind, pred Predictor) (*Result, error) {
	pol, err := NewPolicy(kind, pred)
	if err != nil {
		return nil, err
	}
	return sim.Run(sim.Config{Trace: tr, Policy: pol})
}

// SimSpec names one simulation in a SimulateMany batch.
type SimSpec struct {
	Name   string // identifies the run in errors; defaults to pool/policy
	Trace  *Trace
	Policy PolicyKind
	Pred   Predictor // may be nil for lifetime-unaware policies
}

// SimulateMany replays the specs concurrently across a bounded worker pool
// (parallel <= 0 uses GOMAXPROCS) and returns results in spec order.
// Results are identical to running each spec sequentially — see
// internal/runner for the determinism contract. The first failure cancels
// the remaining runs; cancelling ctx stops the batch at the next run
// boundary.
func SimulateMany(ctx context.Context, parallel int, specs ...SimSpec) ([]*Result, error) {
	jobs := make([]runner.Job, len(specs))
	for i, s := range specs {
		s := s
		if s.Trace == nil {
			return nil, fmt.Errorf("lava: spec %d has no trace", i)
		}
		name := s.Name
		if name == "" {
			name = s.Trace.PoolName + "/" + string(s.Policy)
		}
		jobs[i] = runner.Job{Name: name, Run: func() (*sim.Result, error) {
			// Policies carry mutable caches, so each run builds its own.
			pol, err := NewPolicy(s.Policy, s.Pred)
			if err != nil {
				return nil, err
			}
			return sim.Run(sim.Config{Trace: s.Trace, Policy: pol})
		}}
	}
	results, err := (&runner.Batch{Parallel: parallel}).Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("lava: %w", err)
	}
	out := make([]*Result, len(results))
	for i := range results {
		out[i] = results[i].Result
	}
	return out, nil
}

// RouterKind selects a cell router for multi-cell federations.
type RouterKind string

// Supported routers (see internal/cell).
const (
	RouterRoundRobin    RouterKind = "round-robin"    // spread arrivals cyclically
	RouterLeastUtilized RouterKind = "least-utilized" // balance committed load
	RouterFeatureHash   RouterKind = "feature-hash"   // stable affinity routing
)

// ScenarioNames lists the built-in scenario ids (internal/scenario):
// operational-event overlays — arrival surges, maintenance-drain waves,
// correlated failures, capacity crunches, mispredicting model pushes — that
// compose onto any trace. "steady" is the unmodified control arm.
func ScenarioNames() []string { return scenario.Names() }

// ComposeScenario applies a named scenario's trace-level events (surges,
// flash crowds) to a trace and returns the composed copy; the input is
// never mutated. This is the exact composition SimulateScenario and a
// scenario-enabled fleet (FleetConfig.Scenario) perform internally —
// exported so load drivers can replay the same composed arrival stream
// against a live fleet and byte-compare the outcome with the offline run.
func ComposeScenario(tr *Trace, name string, seed int64) (*Trace, error) {
	if name == "" {
		name = "steady"
	}
	spec, err := scenario.ByName(name, tr, seed)
	if err != nil {
		return nil, err
	}
	return spec.ComposeTrace(tr)
}

// ServeConfig shapes NewServer and Serve. A served run keeps Simulate's clock
// and builds its policies with NewPolicy, as Simulate does.
type ServeConfig struct {
	// Policy is the serving policy (default PolicyLAVA).
	Policy PolicyKind

	// Pred is the lifetime model behind lifetime-aware policies; nil is
	// fine for PolicyWasteMin/PolicyBestFit.
	Pred Predictor

	// Memo is ignored.
	//
	// Deprecated: the (features, uptime) memo-cache is gone — repredictions
	// never repeat an uptime, so it cost more than the models it fronted. The
	// field stays only because bench/ (which this repo's changes may not
	// edit) sets it.
	Memo bool

	// TraceK > 0 enables decision tracing: every placement decision is
	// recorded with the chosen host and its top-TraceK scored alternatives,
	// queryable over GET /trace. Tracing is observe-only — decisions are
	// identical with it on or off.
	TraceK int

	// TraceCap bounds the in-memory trace ring in decisions (0 = the
	// serving default of 8192, negative = unbounded). Older decisions are
	// overwritten once the ring is full.
	TraceCap int

	// TraceOut, if non-nil, additionally streams every recorded decision
	// as a JSON line the moment it is made. Single-cell only: a fleet
	// (NewFleet, and Serve whenever it builds one) refuses it, because
	// per-cell streams would interleave nondeterministically — query each
	// cell's ring instead. The first failed write stops the stream;
	// the server's Tracer().Err reports it, and Serve returns it.
	TraceOut io.Writer

	// Admission configures SLO-class token-bucket admission control, as a
	// spec string parsed by slo.ParseConfig:
	//
	//	"latency=100/1m:200,standard=50/1m"   per-class refill/window[:burst]
	//	"track"                               no limits, per-class accounting only
	//	""                                    admission layer off entirely
	//
	// Unlisted classes stay unlimited. Rejected placements answer HTTP 429
	// with the class and the virtual time of the next token; they consume
	// their sequence turn but never a placement.
	Admission string
}

// NewServer builds an online placement server (internal/serve) over the
// trace's pool geometry: the daemon form of Simulate. The trace's records
// are not replayed — clients drive placements over the HTTP API
// (Server.Handler) or the typed methods; replaying the same trace through
// serve.Client.Replay reproduces Simulate's result byte-for-byte.
func NewServer(tr *Trace, cfg ServeConfig) (*serve.Server, error) {
	sc, newPol, err := cfg.resolve(tr, nil)
	if err != nil {
		return nil, err
	}
	if sc.Policy, err = newPol(0); err != nil {
		return nil, err
	}
	return serve.New(sc)
}

// resolve is the one ServeConfig → serve.Config step, shared by a server and
// a fleet: the trace's geometry plus every serving setting, and — separately,
// because policies carry mutable caches and every cell needs its own
// instance — a policy factory over the predictor. wrap, when non-nil, goes
// around that predictor.
func (cfg ServeConfig) resolve(tr *Trace, wrap func(Predictor) Predictor) (serve.Config, func(int) (scheduler.Policy, error), error) {
	kind := cfg.Policy
	if kind == "" {
		kind = PolicyLAVA
	}
	sc := serve.FromTrace(tr)
	sc.TraceK, sc.TraceCap, sc.TraceOut = cfg.TraceK, cfg.TraceCap, cfg.TraceOut
	pred := cfg.Pred
	if wrap != nil && pred != nil {
		pred = wrap(pred)
	}
	var err error
	sc.SLO, err = slo.ParseConfig(cfg.Admission)
	return sc, func(int) (scheduler.Policy, error) { return NewPolicy(kind, pred) }, err
}

// readHeaderTimeout and idleTimeout bound what a client can hold open
// without sending: a connection that never finishes its request headers, and
// a keep-alive connection between requests. Request bodies are bounded by
// size (serve's 1 MiB cap) and responses may legitimately wait on a parked
// sequence number, so neither gets a deadline.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the one place the daemon's http.Server is configured.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Serve runs a placement service on ln until ctx is cancelled, then shuts
// the listener down gracefully and closes the service; it closes ln
// whenever it returns. This is the one place that decides between the two
// shapes of the service: a config with Cells > 1 or a Scenario (whose tick
// injectors fire inside a fleet's cells, even single-cell) is served by a
// fleet behind a router, anything else by a single Server — the same HTTP
// surface either way, with rolled-up /stats and /drain
// from a fleet. It blocks for the service's lifetime; a clean shutdown
// returns nil, and a TraceOut write that failed while serving turns it into
// an error.
func Serve(ctx context.Context, ln net.Listener, tr *Trace, cfg FleetConfig) error {
	defer ln.Close()
	if err := cfg.check(); err != nil {
		return err
	}
	var handler http.Handler
	var tracer *ptrace.Recorder
	if cfg.Cells > 1 || cfg.Scenario != "" {
		fleet, err := NewFleet(tr, cfg)
		if err != nil {
			return err
		}
		defer fleet.Close()
		handler = fleet.Handler()
	} else {
		srv, err := NewServer(tr, cfg.ServeConfig)
		if err != nil {
			return err
		}
		defer srv.Close()
		handler = srv.Handler()
		tracer = srv.Tracer()
	}
	hs := newHTTPServer(handler)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = hs.Shutdown(shutCtx)
	case err = <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
	}
	// The recorder stopped writing at its first failed write; Shutdown has
	// waited for every handler, so no decision is recorded after this read.
	if tracer != nil && tracer.Err() != nil {
		err = errors.Join(err, fmt.Errorf("lava: TraceOut (-trace-out): %w", tracer.Err()))
	}
	return err
}

// FleetConfig shapes Serve, NewFleet and the offline run of a fleet
// (SimulateScenario, ReplayFleetOffline): the single-server ServeConfig plus
// the federation dimensions.
//
// A fleet measures every cell to the trace's common End() — its horizon, or
// with none set the last exit of the whole (scenario-composed) trace — never
// to the cell's own last exit, which no live front-end could know in advance.
// That one rule is what lets an online drain and an offline run of the same
// stream agree on horizon-less traces too.
type FleetConfig struct {
	ServeConfig

	// Cells is the number of independent serving cells (default 1). Each
	// cell owns its own pool, policy instance and sequencer turns, so a fleet
	// serves placements in parallel across cores.
	Cells int

	// Router picks how placements map to cells (default RouterFeatureHash).
	// All three kinds run on the one routing ledger offline sharding uses
	// (internal/cell), so a replayed trace is byte-identical online and
	// offline under any of them; they differ only for live traffic whose
	// exits are not the trace's.
	Router RouterKind

	// Scenario, when non-empty, runs the fleet under a named operational
	// scenario (ScenarioNames): the fleet's pool geometry comes from the
	// scenario-composed trace, every cell gets the scenario's tick
	// injectors (drain waves, failures, crunches fire live inside the
	// cells' ticks), and the predictor is wrapped with the scenario's
	// model events. A client replaying the composed trace (ComposeScenario)
	// against such a fleet drains to SimulateScenario's rollup, byte-for-byte
	// as a report (ReplayFleetOffline).
	Scenario string

	// ScenarioSeed drives scenario randomness; must match the seed of the
	// offline arm being compared against.
	ScenarioSeed int64

	// ClassMix labels the replayed event stream with SLO classes (see
	// AssignClasses; seeded by ScenarioSeed). A live fleet ignores it —
	// online requests carry their class on the wire — but the offline run
	// needs it to reconstruct the classed stream a lavaload -class-mix
	// replay sends, scenario-added arrivals included.
	ClassMix string
}

// check refuses, whatever the cell count, what a fleet would refuse: a
// single loop ignores Router, but a misspelt one must not pass there either.
func (cfg FleetConfig) check() error {
	if r := string(cfg.Router); r != "" && !slices.Contains(cell.RouterKinds(), r) {
		return fmt.Errorf("lava: unknown Router (-router) %q (have %s)", r, strings.Join(cell.RouterKinds(), "|"))
	}
	return nil
}

// NewFleet builds a federated placement front-end (serve.Fleet) over the
// trace's pool geometry: hosts split evenly across cfg.Cells, one policy
// instance per cell, one shared predictor. Replaying a trace
// against the fleet drains to ReplayFleetOffline's report byte-for-byte under
// every router kind, at any client concurrency.
func NewFleet(tr *Trace, cfg FleetConfig) (*serve.Fleet, error) {
	fc, _, err := buildFleetConfig(tr, cfg)
	if err != nil {
		return nil, err
	}
	return serve.NewFleet(fc)
}

// buildFleetConfig resolves a facade FleetConfig into the serve-layer one:
// scenario composition, class labels, then ServeConfig.resolve over the
// resulting trace. It also returns that (possibly scenario-composed) trace —
// the event stream the offline run must replay. Shared by NewFleet and
// runFleetOffline, so the fleet lavad serves and the fleet an offline run
// drives are built from one configuration.
func buildFleetConfig(tr *Trace, cfg FleetConfig) (serve.FleetConfig, *Trace, error) {
	fc := serve.FleetConfig{Cells: max(cfg.Cells, 1), Router: string(cfg.Router)}
	if cfg.TraceOut != nil {
		return fc, nil, errors.New("lava: TraceOut (-trace-out) is single-cell only; query /trace?cell=N in fleet mode")
	}
	var wrap func(Predictor) Predictor
	if cfg.Scenario != "" {
		spec, err := scenario.ByName(cfg.Scenario, tr, cfg.ScenarioSeed)
		if err != nil {
			return fc, nil, err
		}
		if tr, err = spec.ComposeTrace(tr); err != nil {
			return fc, nil, err
		}
		wrap = spec.WrapModel
		fc.NewInjectors = spec.Injectors
	}
	var err error
	if cfg.ClassMix != "" {
		// Label after scenario composition so scenario-added arrivals get
		// classes too — the same compose-then-label order lavaload uses.
		if tr, err = AssignClasses(tr, cfg.ClassMix, cfg.ScenarioSeed); err != nil {
			return fc, nil, err
		}
	}
	fc.Config, fc.NewPolicy, err = cfg.resolve(tr, wrap)
	return fc, tr, err
}

// runFleetOffline is the one offline driver of a fleet: the configuration
// NewFleet would serve, and the (scenario-composed, class-labeled) event
// stream a client would replay against it, handed to that very fleet in
// program order by serve.RunScriptOffline, with no HTTP.
func runFleetOffline(tr *Trace, cfg FleetConfig) (*cell.Rollup, error) {
	fc, composed, err := buildFleetConfig(tr, cfg)
	if err != nil {
		return nil, err
	}
	return serve.RunScriptOffline(fc, serve.OpsFromTrace(composed))
}

// SimulateScenario runs a federation offline: it composes cfg.Scenario onto
// the trace, replays the result across cfg.Cells cells behind cfg.Router
// under cfg.Policy, scenario injectors firing in every cell, and returns the
// per-cell results with their fleet-level rollup. Deterministic given
// (trace, cfg); the federated counterpart of Simulate.
func SimulateScenario(tr *Trace, cfg FleetConfig) (*cell.Rollup, error) {
	return runFleetOffline(tr, cfg)
}

// ReplayFleetOffline is SimulateScenario projected into the exact drain
// report a fleet built by NewFleet(tr, cfg) produces when the trace's event
// stream is replayed against it (serve.Client.Replay, any concurrency): the
// offline arm of the federated parity harness, admission gate included.
func ReplayFleetOffline(tr *Trace, cfg FleetConfig) (*serve.DrainResponse, error) {
	roll, err := runFleetOffline(tr, cfg)
	if err != nil {
		return nil, err
	}
	resp := serve.FleetReportOf(tr.PoolName, roll.Cells[0].Policy, roll)
	return &resp, nil
}

// ReplayOptions shapes ReplayTrace. The zero value replays serially, as
// fast as the server accepts, and drains at the end.
type ReplayOptions = serve.ReplayOptions

// ReplayReport is the outcome of ReplayTrace: request count, wall time,
// client-observed latency summary, and (unless SkipDrain) the server's
// final aggregates.
type ReplayReport = serve.ReplayReport

// ReplayTrace replays the trace's event stream against a placement server
// at baseURL (e.g. "http://127.0.0.1:8080"): the library form of
// cmd/lavaload. Requests are sequence-numbered, so the served decisions
// match an offline Simulate of the same trace byte-for-byte at any
// concurrency.
func ReplayTrace(ctx context.Context, baseURL string, tr *Trace, opt ReplayOptions) (*ReplayReport, error) {
	return (&serve.Client{Base: baseURL}).Replay(ctx, tr, opt)
}

// AssignClasses labels a trace's records with SLO classes drawn from a mix
// spec — "latency=1,standard=8,besteffort=1" style weights over the three
// classes (see internal/slo.ParseMix) — and returns the labeled copy; the
// input is never mutated. Assignment is a pure function of (seed, record
// ID): independent of record order, so both arms of an online/offline
// comparison label identically, and stable under scenario composition.
// Classes never influence placement or routing — only admission and
// per-class accounting.
func AssignClasses(tr *Trace, mix string, seed int64) (*Trace, error) {
	m, err := slo.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	if m.Zero() {
		return tr, nil
	}
	return slo.AssignClasses(tr, m, seed), nil
}

// Compare runs several policies on the same trace and returns results keyed
// by policy kind — the quickest way to reproduce the paper's headline
// comparison on one pool. The policies run concurrently via SimulateMany.
func Compare(tr *Trace, pred Predictor, kinds ...PolicyKind) (map[PolicyKind]*Result, error) {
	if len(kinds) == 0 {
		kinds = []PolicyKind{PolicyWasteMin, PolicyLABinary, PolicyNILAS, PolicyLAVA}
	}
	specs := make([]SimSpec, len(kinds))
	for i, k := range kinds {
		specs[i] = SimSpec{Trace: tr, Policy: k, Pred: pred}
	}
	results, err := SimulateMany(context.Background(), 0, specs...)
	if err != nil {
		return nil, err
	}
	out := make(map[PolicyKind]*Result, len(kinds))
	for i, k := range kinds {
		out[k] = results[i]
	}
	return out, nil
}
