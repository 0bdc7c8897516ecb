// Command lavaload replays a trace against a running lavad placement
// daemon and reports serving performance: achieved throughput plus
// p50/p95/p99 client-observed placement latency, in the same BENCH JSON
// document format the experiment runner emits, so the serving trajectory
// is tracked by the same CI artifacts as packing quality.
//
// Usage:
//
//	lavaload -trace trace.jsonl                              # replay at max speed
//	lavaload -trace trace.jsonl -qps 500 -concurrency 8
//	lavaload -trace trace.jsonl -json BENCH_serving.json     # machine-readable
//	lavaload -trace trace.jsonl -no-drain                    # leave lavad running
//	lavaload -trace trace.jsonl -class-mix "latency=1,standard=8,besteffort=1"
//
// -class-mix labels the replayed records with SLO classes (deterministic in
// -seed and record ID) so a daemon running with -admit can shape traffic per
// class; the report then breaks client latency down per class and counts
// admission rejections (HTTP 429), which are expected shaping, not errors.
//
// Every request carries a sequence number, so the daemon's sequencer
// restores exact event order at any -concurrency: the drain report that
// -final-out writes is byte-identical to `lavasim -final-out` on the same
// trace (TestCLIParity in internal/cli diffs the two files for every shape
// of the service). Against a federated daemon (`lavad -cells N`) the same
// replay drives the whole fleet; the drain report then carries the router,
// the utilization spread, and one BENCH row per cell. The trace is validated
// and -final-out with -no-drain refused before the first request is sent.
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
	os.Exit(cli.Lavaload(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
