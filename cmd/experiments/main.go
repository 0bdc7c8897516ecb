// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig6                    # one experiment
//	experiments -exp fig6,fig13              # a comma-separated list
//	experiments -exp all                     # everything (slow at scale 1)
//	experiments -exp table1 -scale 0.5       # scaled-down run
//	experiments -exp all -parallel 8         # fan simulations out over 8 workers
//	experiments -exp fig6 -json BENCH_fig6.json  # machine-readable results
//	experiments -exp scenarios -cells 4      # scenario matrix over a 4-cell federation
//	experiments -exp scenarios -scenario drain-wave -router round-robin
//	experiments -exp fig13 -parallel 8 -canonical -json out.json  # CI determinism gate
//	experiments -exp scale -parallel 1 -json BENCH_scale.json  # pool-scale sweep
//	experiments -exp fig13 -exhaustive -canonical -json ref.json  # reference engine
//	experiments -exp fig13 -trace -canonical -json out.json  # tracing is observe-only
//	experiments -exp fig13 -trace-out traces.json            # decision streams, top-K alts
//	experiments -counterfactual lava,wastemin                # trace-replay differential
//
// Simulation batches fan out across -parallel workers (default GOMAXPROCS;
// results are identical at any worker count, see internal/runner). Progress
// and ETA go to stderr with -progress. -json writes every batch's per-job
// metrics and timings as an indented JSON document ("-" for stdout) for
// BENCH_*.json trajectory tracking; -canonical strips wall-clock timings
// and worker counts from that document so runs at any -parallel setting
// diff byte-identically — the CI determinism job relies on it.
//
// -exhaustive runs every policy on the exhaustive scoring engine instead of
// the incremental score cache (see DESIGN.md §6). Results are byte-identical
// either way; CI's determinism job diffs the two canonical documents to
// prove it on the fig13 and scenarios matrices.
//
// Decision tracing (this PR) records, per placement decision, the chosen
// host plus the top-K scored alternatives (see internal/ptrace). -trace
// turns it on for every simulation job, -trace-k sets K (default 8, implies
// -trace), and -trace-out writes all recorded streams as one indented JSON
// document keyed "experiment/job" ('-' for stdout, implies -trace). Tracing
// is observe-only: -json output is byte-identical with it on or off, and
// trace documents are identical at any -parallel setting — both diffed by
// the CI determinism job.
//
// -counterfactual A,B replays policy A's recorded fig13-fixture decision
// stream under policy B without re-simulating (names as -exp policies:
// wastemin | bestfit | nilas | lava | la-binary). It first proves A's
// self-replay is exact and that a full re-simulation under B agrees with
// the replay's first divergence, then prints the divergence/regret report;
// parity violations exit non-zero. It runs instead of -exp and ignores
// -json.
//
// The scenarios experiment (PR 2) takes three extra knobs, ignored by the
// classic table/figure experiments:
//
//	-cells N              federation width (default 0 = the experiment's
//	                      built-in default of 4 cells)
//	-scenario ID          restrict to one scenario from the catalog
//	                      (default "" = the whole catalog, steady included)
//	-router KIND          cell router: round-robin | least-utilized |
//	                      feature-hash (default "" = feature-hash)
//
// The scale experiment sweeps pool size x policy x scoring engine on a
// fixed fig6-mix workload, in two tiers (-scale-tier):
//
//	full  (default)  dual-engine differential cells at 1k/10k/50k hosts
//	                 (at -scale 1, shrunk proportionally, 64-host floor)
//	                 plus the mega cells at 250k/1M hosts: cached engine
//	                 only, epoch-quantized NILAS/LAVA, and a streamed
//	                 trace that is generated record-by-record instead of
//	                 materialized (memory stays O(live VMs))
//	smoke            the 1k/10k dual-engine cells only — the minutes-long
//	                 subset the bench-smoke CI job runs
//
// Row names always use the unscaled sweep size ("h1000000/..." runs 250k
// actual hosts at -scale 0.25), so the same name tracks the same cell at
// any -scale. The dual-engine report doubles as a differential check (the
// "identical" column) and its BENCH_scale.json — produced in CI at reduced
// scale — is the placement-throughput scale curve future PRs are held
// against. Wall-clock speedup columns are only meaningful with -parallel 1;
// the benchstat-gated numbers come from BenchmarkScalePlacement (see
// README.md "Benchmarking & performance tuning").
//
// Each experiment prints the same rows/series the paper reports plus the
// paper's published values for comparison. See README.md for the full
// experiment-to-figure map and how these flags combine with the CI gates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lava/internal/experiments"
	"lava/internal/ptrace"
	"lava/internal/runner"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.Names(), "|")+") or 'all'")
		scale      = flag.Float64("scale", 0.25, "study scale in (0,1]: 1 = paper-sized (slow)")
		seed       = flag.Int64("seed", 42, "random seed")
		parallel   = flag.Int("parallel", 0, "simulation workers: 1 = sequential, 0 = GOMAXPROCS")
		cells      = flag.Int("cells", 0, "federation width for the scenarios experiment (0 = default 4)")
		scen       = flag.String("scenario", "", "restrict the scenarios experiment to one scenario id (empty = whole catalog)")
		scaleTier  = flag.String("scale-tier", "", "scale experiment tier: full = dual-engine sweep + streamed 250k/1M mega cells (default), smoke = small dual-engine cells only (CI bench-smoke)")
		router     = flag.String("router", "", "cell router for the scenarios experiment: round-robin | least-utilized | feature-hash")
		jsonOut    = flag.String("json", "", "write machine-readable batch results to this file ('-' for stdout)")
		canonical  = flag.Bool("canonical", false, "strip timings/worker counts from -json output so runs at any -parallel diff byte-identically")
		exhaustive = flag.Bool("exhaustive", false, "run policies on the exhaustive scoring engine instead of the incremental score cache (results are byte-identical; CI diffs the two)")
		progress   = flag.Bool("progress", false, "report batch progress and ETA on stderr")
		traceOn    = flag.Bool("trace", false, "record per-decision traces (chosen host + top-K alternatives) in every simulation job")
		traceK     = flag.Int("trace-k", 0, "top-K scored alternatives per traced decision (default 8; > 0 implies -trace)")
		traceOut   = flag.String("trace-out", "", "write all recorded decision streams as one JSON document ('-' for stdout; implies -trace)")
		counter    = flag.String("counterfactual", "", "replay policy A's fig13-fixture trace under policy B, as 'A,B'; runs instead of -exp")
	)
	flag.Parse()

	names, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := experiments.Options{
		Scale: *scale, Seed: *seed, Parallel: *parallel,
		Cells: *cells, Scenario: *scen, Router: *router,
		ScaleTier: *scaleTier, Exhaustive: *exhaustive,
	}
	if *traceOn || *traceK > 0 || *traceOut != "" {
		opt.TraceK = *traceK
		if opt.TraceK <= 0 {
			opt.TraceK = ptrace.DefaultK
		}
	}
	var traces *ptrace.Sink
	if *traceOut != "" {
		traces = &ptrace.Sink{}
		opt.Traces = traces
	}
	if *progress {
		opt.Progress = func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "\r%-24s %d/%d done (%.1fs elapsed, ETA %.1fs)   ",
				p.Name, p.Done, p.Total, p.Elapsed.Seconds(), p.ETA.Seconds())
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var sink *runner.Sink
	if *jsonOut != "" {
		sink = &runner.Sink{}
		opt.Sink = sink
	}

	if *counter != "" {
		ab := strings.Split(*counter, ",")
		if len(ab) != 2 {
			fmt.Fprintf(os.Stderr, "experiments: -counterfactual wants 'A,B', got %q\n", *counter)
			os.Exit(1)
		}
		rep, err := experiments.Counterfactual(opt, strings.TrimSpace(ab[0]), strings.TrimSpace(ab[1]))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: counterfactual: %v\n", err)
			os.Exit(1)
		}
		rep.Render(os.Stdout)
		return
	}

	start := time.Now()
	for _, name := range names {
		expStart := time.Now()
		rep, err := experiments.Run(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%.1fs) ====\n", name, time.Since(expStart).Seconds())
		rep.Render(os.Stdout)
		fmt.Println()
	}

	if sink != nil {
		doc := runner.Document{
			Scale:      *scale,
			Seed:       *seed,
			Parallel:   runner.Workers(*parallel),
			ElapsedSec: time.Since(start).Seconds(),
			Batches:    sink.Summaries(),
		}
		if *canonical {
			doc.Canonicalize()
		}
		if err := writeDoc(*jsonOut, doc); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: write json: %v\n", err)
			os.Exit(1)
		}
	}
	if traces != nil {
		if err := writeTraces(*traceOut, traces); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: write traces: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTraces writes the recorded decision streams to path, or stdout
// for "-".
func writeTraces(path string, traces *ptrace.Sink) error {
	if path == "-" {
		return traces.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := traces.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeDoc writes the JSON document to path, or stdout for "-".
func writeDoc(path string, doc runner.Document) error {
	if path == "-" {
		return runner.WriteJSON(os.Stdout, doc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runner.WriteJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
