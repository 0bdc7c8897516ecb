// Command lavasim replays a trace against a scheduling policy and prints
// the bin-packing metrics the paper reports.
//
// Usage:
//
//	lavasim -trace trace.jsonl -policy lava -model gbdt
//	lavasim -trace trace.jsonl -policy wastemin
//	lavasim -trace trace.jsonl -policy nilas -model oracle -defrag
//	lavasim -trace trace.jsonl -cells 4 -scenario drain-wave   # federation
//	lavasim -trace trace.jsonl -class-mix "latency=1,standard=8" -admit "latency=10/1h"
//
// With -cells > 1 or -scenario set, the run is the offline run of a fleet
// (lava.ReplayFleetOffline): the named scenario (see -scenario for ids)
// composes onto the trace, a router spreads it across -cells independent
// cells, and per-cell metrics are printed with a fleet-level rollup. It is
// the routing ledger, per-cell machines and front-door gate a live
// `lavad -cells N` runs, just sequential, so -final-out diffs byte-for-byte
// against a `lavaload -final-out` capture of the same stream served online.
// A single-cell run writes the leaf report a single `lavad` drains to.
// TestCLIParity in internal/cli runs both arms in process and compares the
// files.
//
// -class-mix labels records with SLO classes (deterministic in -seed and
// record ID) and -admit enables per-class token-bucket admission control;
// rejected arrivals are counted per class, never placed, and the report
// gains per-class counts, Jain's fairness index and the multi-objective
// fitness score.
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"

	"lava/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(cli.Lavasim(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
