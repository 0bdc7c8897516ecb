package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/ptrace"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// Options scales experiments between test-sized and paper-sized runs.
type Options struct {
	// Scale in (0, 1]: 1 is the full configuration (24 pools, 7-week
	// steady windows); smaller values shrink pool counts, host counts and
	// durations proportionally. Default 0.25.
	Scale float64

	// Seed drives all randomness.
	Seed int64

	// Parallel is the worker count for simulation batches and other
	// fan-out stages: 1 runs strictly sequentially, <= 0 uses GOMAXPROCS.
	// Results are identical at any setting (see internal/runner).
	Parallel int

	// Cells is the federation width for the scenarios experiment: the
	// workload is sharded across this many independent cells (default 4).
	Cells int

	// Scenario restricts the scenarios experiment to one named scenario
	// from the internal/scenario catalog; empty runs the whole catalog.
	Scenario string

	// ScaleTier selects the scale experiment's cell set: "full" (default)
	// runs the complete sweep — dual-engine differential cells plus the
	// cached-only streamed mega cells (250k/1M hosts at scale 1) — while
	// "smoke" runs only the small dual-engine cells, the minutes-not-hours
	// subset the bench-smoke CI job uses.
	ScaleTier string

	// Router picks the cell router for the scenarios experiment
	// (round-robin | least-utilized | feature-hash; default feature-hash).
	Router string

	// Exhaustive runs every policy on the exhaustive scoring engine instead
	// of the incremental score cache (scheduler.EngineExhaustive). Results
	// are byte-identical either way — the CI determinism job diffs the two
	// — so this knob exists for differential testing and for measuring the
	// cache's speedup (the scale experiment runs both arms).
	Exhaustive bool

	// Progress, if non-nil, receives a snapshot after every batch job
	// completes (aggregated completion counts and an ETA).
	Progress func(runner.Progress)

	// Sink, if non-nil, collects machine-readable per-batch results for
	// BENCH_*.json trajectory output.
	Sink *runner.Sink

	// TraceK > 0 enables decision tracing in every simulation job: each
	// run records its full decision stream (unbounded — trace documents
	// feed counterfactual replay) with the top-K scored alternatives per
	// placement. Tracing is observe-only; results are byte-identical with
	// it on or off, which the CI determinism job checks.
	TraceK int

	// Traces, if non-nil, collects each traced job's decision stream keyed
	// "experiment/job" for -trace-out.
	Traces *ptrace.Sink

	// traceExp prefixes trace stream names with the experiment ID; set by
	// Run so job names stay unique across -exp lists.
	traceExp string
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// scaleInt shrinks n by the scale factor with a floor.
func scaleInt(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// scaleDur shrinks a duration by the scale factor with a floor.
func scaleDur(d time.Duration, scale float64, min time.Duration) time.Duration {
	v := time.Duration(float64(d) * scale)
	if v < min {
		v = min
	}
	return v
}

// Report is a rendered experiment result.
type Report interface {
	Name() string
	Render(w io.Writer)
}

// Runner produces a report.
type Runner func(Options) (Report, error)

// registry maps experiment IDs to runners. Populated by init() functions in
// the per-experiment files.
var registry = map[string]Runner{}

func register(name string, r Runner) { registry[name] = r }

// Names lists registered experiment IDs, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Select resolves an -exp list: "all" is every registered experiment, anything
// else a comma-separated list of IDs. An unknown ID fails the whole list, so
// a caller refuses it before the first experiment runs.
func Select(spec string) ([]string, error) {
	if spec == "all" {
		return Names(), nil
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if _, ok := registry[names[i]]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", names[i], Names())
		}
	}
	return names, nil
}

// Run executes one experiment by name.
func Run(name string, opt Options) (Report, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	opt = opt.withDefaults()
	opt.traceExp = name
	return r(opt)
}

// --- concurrent execution ------------------------------------------------

// batch fans the simulation jobs out across the runner's worker pool and
// returns their results keyed by job name. Results are independent of the
// worker count; exp names the batch in progress and JSON output.
func batch(opt Options, exp string, jobs []runner.Job) (map[string]*sim.Result, error) {
	b := &runner.Batch{Parallel: opt.Parallel, OnProgress: opt.Progress}
	start := time.Now()
	results, err := b.Run(context.Background(), jobs)
	if opt.Sink != nil {
		opt.Sink.Add(runner.Summarize(exp, b.Workers(), time.Since(start).Seconds(), results))
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", exp, err)
	}
	out := make(map[string]*sim.Result, len(results))
	for i := range results {
		out[results[i].Name] = results[i].Result
	}
	return out, nil
}

// policy applies the options' engine selection to a freshly built policy.
func (o Options) policy(p scheduler.Policy) scheduler.Policy {
	if o.Exhaustive {
		scheduler.SetEngine(p, scheduler.EngineExhaustive)
	}
	return p
}

// simJob builds a named batch job that replays tr under the policy pol
// constructs, on the engine the options select. Policies carry mutable
// caches, so each job builds its own inside the closure.
func simJob(opt Options, name string, seed int64, tr *trace.Trace, pol func() scheduler.Policy) runner.Job {
	return runner.Job{Name: name, Seed: seed, Run: func() (*sim.Result, error) {
		cfg := sim.Config{Trace: tr, Policy: opt.policy(pol())}
		var rec *ptrace.Recorder
		if opt.TraceK > 0 {
			rec = ptrace.New(ptrace.Options{K: opt.TraceK, Policy: cfg.Policy.Name()})
			cfg.Tracer = rec
		}
		res, err := sim.Run(cfg)
		if err == nil && rec != nil && opt.Traces != nil {
			stream := name
			if opt.traceExp != "" {
				stream = opt.traceExp + "/" + name
			}
			opt.Traces.Add(stream, rec)
		}
		return res, err
	}}
}

// parDo runs independent tasks (trace generation, model training, shard
// post-processing) under the same worker budget as the batches.
func parDo(opt Options, tasks ...func() error) error {
	return runner.Do(context.Background(), opt.Parallel, tasks...)
}

// --- shared fixtures -----------------------------------------------------

// studyTrace generates one standard study pool trace at the given scale.
func studyTrace(opt Options, idx int, util float64) (*trace.Trace, error) {
	return workload.Generate(workload.PoolSpec{
		Name:       fmt.Sprintf("pool-%02d", idx),
		Zone:       []string{"us-central1-a", "us-east1-b", "europe-west4-a"}[idx%3],
		Hosts:      scaleInt(160, opt.Scale, 24),
		TargetUtil: util,
		Duration:   scaleDur(7*simtime.Week, opt.Scale, 4*simtime.Day),
		Prefill:    scaleDur(3*simtime.Week, opt.Scale, 8*simtime.Day),
		Seed:       opt.Seed + int64(1000*idx),
		Diurnal:    0.3,
		FirstVMID:  0,
	})
}

// trainedModel trains the production-style GBDT on an independent training
// trace — one joint model shared by every pool, as in production (§3).
func trainedModel(opt Options) (*model.GBDTPredictor, error) {
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "training", Zone: "train-zone", Hosts: scaleInt(96, opt.Scale, 24),
		TargetUtil: 0.65,
		Duration:   scaleDur(4*simtime.Week, opt.Scale, 7*simtime.Day),
		Seed:       opt.Seed + 999_999,
	})
	if err != nil {
		return nil, err
	}
	trees := scaleInt(400, opt.Scale, 80)
	return model.TrainGBDT(tr.Records, gbdt.Params{Trees: trees})
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%6.2f%%", 100*f) }

// pp formats a percentage-point delta.
func pp(f float64) string { return fmt.Sprintf("%+.2f pp", 100*f) }
