// Command benchjudge judges a change against its parent from two run files
// of the repository benchmark, as bench/sweep.sh writes them: one JSON line
// per run, naming its workload, seed and whether it was traced. Run it from
// the module root, where BENCHMARK.json gives each end-to-end metric's
// direction and bound:
//
//	bash bench/sweep.sh base.jsonl 1 2 3 4 5 6 7 8 9 10   # on the parent
//	bash bench/sweep.sh head.jsonl 1 2 3 4 5 6 7 8 9 10   # on the change
//	benchjudge base.jsonl head.jsonl
//
// It pairs the untraced runs by (workload, seed), so each pair's ratio
// cancels what the seed does to both sides, and prints one row per workload
// and end-to-end metric: both medians, the median per-pair head/base ratio,
// the pairs head won, exact one-sided sign tests both ways, and a verdict of
// better, same, regressed or unresolved. It exits 1 when any row regressed,
// and refuses a (workload, seed) that only one file ran. Its regressed and
// unresolved rules are those of bench/run.sh --compare, which it replaces,
// plus the paired ones.
//
// Given two checkouts, it runs the pairs itself before judging them:
//
//	benchjudge -base ../parent -head . -workloads serve-single -seeds 101-110 base.jsonl head.jsonl
//
// runs BENCHMARK.json's command (bash bench/run.sh --workload W --seed S
// --trace 0 --seconds N, N its run_seconds) in each checkout for every
// seed and workload, alternating which side runs first from seed to seed,
// and writes the two new run files as bench/sweep.sh does. It stops at a
// run that exits non-zero or reports "correct": false.
//
// The command is cli.Benchjudge.
package main

import (
	"context"
	"os"

	"lava/internal/cli"
)

func main() {
	os.Exit(cli.Benchjudge(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
