// Package cluster models the physical substrate of the paper's setting
// (§2.2): pools of identical hosts onto which VMs are packed. It owns all
// allocation bookkeeping and the per-host LAVA lifetime-class state machine
// (empty / open / recycling, §4.3).
//
// # Concurrency contract
//
// A Pool — and everything hanging off it: hosts, VMs, the running
// aggregates — is NOT safe for concurrent use. The contract is
// single-writer: exactly one goroutine mutates a pool (through
// Place/Exit/Migrate, which keep the aggregates consistent and which only
// internal/sim calls from outside this package), and no other goroutine
// may even read while it does, since reads see the same host state and
// counters the writers update.
// The code paths honoring this are
//
//   - internal/runner: each simulation job owns its pool outright — jobs
//     share only immutable traces and trained predictors;
//   - internal/cell: every cell is an independent pool, sharded before any
//     simulation starts;
//   - internal/serve: the placement daemon applies every request, and
//     serves read-only stats/snapshot queries, under its sequencer's lock —
//     one goroutine at a time, the turn-holder's — rather than locking the
//     pool.
//
// Pools deliberately carry no internal locking: the hot path (placement
// and exit bookkeeping) is the scheduler's inner loop, and the
// single-writer discipline makes runs deterministic — concurrency changes
// wall-clock time, never results.
//
// # Host events
//
// Pools publish a host event for every mutation that can change scheduling
// outcomes: Place/Exit/Migrate publish HostChanged, AddHosts/RemoveHost
// the membership events, and InvalidateHost is the explicit channel for
// out-of-band changes (Unavailable flips, which sim.Control alone makes,
// and LAVA state transitions driven from policy hooks). Subscribers run
// synchronously under the same single-writer contract and typically just
// flip dirty bits — the scheduler's incremental score caches are built on
// this surface (see internal/scheduler and DESIGN.md §6).
//
// # Memory layout
//
// A pool's hosts live in slabs: NewPool and AddHosts allocate each batch
// of hosts as one []Host, so a pool costs a few allocations whatever its
// size. Pool.Host indexes the ID-sorted host slice directly on a pool
// that has only grown and binary-searches it otherwise; there is no ID
// map. A host's residual set (§4.3) is a flag on each VM plus a count on
// the host, not a map. Pool.CheckInvariants walks the hosts' own VM
// slices and allocates nothing, so a test may run it after every
// operation (FuzzPoolOps does).
package cluster
