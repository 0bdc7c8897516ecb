// Command lavad is the online placement daemon: it loads a pool geometry
// (and model training data) from a trace file, trains the requested
// lifetime model, and serves the LAVA scheduling stack over an HTTP JSON
// API — /place, /exit, /tick, /stats, /snapshot, /drain — instead of
// replaying the trace offline.
//
// Usage:
//
//	lavad -trace trace.jsonl                         # LAVA + dist model on :8080
//	lavad -trace trace.jsonl -policy nilas -model gbdt -addr 127.0.0.1:9000
//	lavad -trace trace.jsonl -model oracle           # ground-truth lifetimes
//	lavad -trace trace.jsonl -cells 4 -router feature-hash   # federated fleet
//	lavad -trace trace.jsonl -trace-k 3                      # decision tracing on /trace
//	lavad -trace trace.jsonl -trace-k 8 -trace-out dec.jsonl # + persistent JSONL stream
//	lavad -trace trace.jsonl -admit "latency=100/1m:200"     # SLO admission control
//
// -admit enables per-class token-bucket admission control in front of the
// scheduler: requests carry an SLO class (latency | standard | besteffort;
// missing defaults to standard), over-budget classes get HTTP 429 with a
// retry-at virtual time, and /stats and /drain report per-class counts with
// Jain's fairness index. The buckets refill on virtual-time boundaries, so
// admission decisions replay deterministically — "track" keeps the
// accounting with no limits.
//
// -trace-k K > 0 enables decision tracing: every placement decision is
// recorded with the chosen host and its top-K scored alternatives, held in
// a ring of -trace-buf decisions (default 8192, -1 unbounded) and served
// over GET /trace (filters: vm, host, from_ns, to_ns, after, limit; in
// fleet mode add cell=N). -trace-out streams decisions to a JSONL file as
// they happen; a fleet (-cells > 1 or -scenario) refuses it. Without
// -trace-k, -trace-buf and -trace-out are refused. Tracing is
// observe-only — placement decisions are identical with it on or off.
//
// Ticks, samples, warm-up and the host-score cache refresh are lavasim's
// (internal/simtime, lava.NewPolicy) and no flag sets them.
//
// With -cells N > 1 the daemon serves a federated fleet: N independent
// cells (applying in parallel across cores) behind a router chosen by
// -router (round-robin | least-utilized | feature-hash), the same HTTP
// surface, rolled-up /stats and /drain.
//
// Replaying the same trace against the daemon with cmd/lavaload reproduces
// `lavasim -trace trace.jsonl` byte-for-byte — per cell, in fleet mode,
// under every router: `lavasim -cells N` runs the fleet's own ledger, op
// expansion and per-cell machines, sequentially. The routers differ from an
// offline run only for live traffic whose exits are not the trace's.
// TestCLIParity in internal/cli runs exactly that comparison, in process,
// for every shape of the service; see internal/serve for the determinism
// contract. lavad announces the bound address on stderr once it listens
// (so -addr 127.0.0.1:0 picks a free port). SIGINT/SIGTERM shut the
// listener down gracefully and close the service.
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
	os.Exit(cli.Lavad(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
