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
//	experiments -exp fig13 -parallel 8 -canonical -json out.json  # worker-count invariant
//	experiments -exp scale -parallel 1 -json BENCH_scale.json  # pool-scale sweep
//	experiments -exp fig13 -exhaustive -canonical -json ref.json  # reference engine
//	experiments -exp fig13 -trace-k 3 -canonical -json out.json  # tracing is observe-only
//	experiments -exp fig13 -trace-out traces.json            # decision streams, top-K alts
//	experiments -counterfactual lava,wastemin                # trace-replay differential
//
// Simulation batches fan out across -parallel workers (default GOMAXPROCS;
// results are identical at any worker count, see internal/runner). Progress
// and ETA go to stderr with -progress. -json writes every batch's per-job
// metrics and timings as an indented JSON document ("-" for stdout) for
// BENCH_*.json trajectory tracking; -canonical strips wall-clock timings
// and worker counts from that document so runs at any -parallel setting
// diff byte-identically.
//
// -exhaustive runs every policy on the exhaustive scoring engine instead of
// the incremental score cache (see DESIGN.md §6). Results are byte-identical
// either way: TestCachedMatchesExhaustiveMatrices diffs the two canonical
// documents on the fig13 and scenarios matrices.
//
// Decision tracing records, per placement decision, the chosen host plus
// the top-K scored alternatives (see internal/ptrace). -trace-k K > 0 turns
// it on for every simulation job, and -trace-out writes all recorded
// streams as one indented JSON document keyed "experiment/job" ('-' for
// stdout; it arms tracing at the default K of 8 when -trace-k is unset).
// Tracing is observe-only: -json output is byte-identical with it on or
// off, and trace documents are identical at any -parallel setting and on
// either engine (TestTracingObserveOnlyAndParallelInvariant).
//
// -counterfactual A,B replays policy A's recorded fig13-fixture decision
// stream under policy B without re-simulating (names as -exp policies:
// wastemin | bestfit | nilas | lava | la-binary). It first proves A's
// self-replay is exact and that a full re-simulation under B agrees with
// the replay's first divergence, then prints the divergence/regret report;
// parity violations exit non-zero. It runs instead of -exp and ignores
// -json.
//
// The scenarios experiment takes three extra knobs, ignored by the
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
// The command is cli.Experiments; TestExperimentsCLI in internal/cli runs
// it in process.
package main

import (
	"context"
	"os"

	"lava/internal/cli"
)

func main() {
	os.Exit(cli.Experiments(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
