// Package cluster models the physical substrate of the paper's setting
// (§2.2): pools of identical hosts onto which VMs are packed. It owns all
// allocation bookkeeping and no scheduling policy: what a policy keeps per
// host, it keeps itself (internal/scheduler), stamped with the host's
// Occupancy so that state from before a host went empty is void however it
// went empty.
//
// # Concurrency contract
//
// A Pool — and everything hanging off it: hosts, VMs, the running
// aggregates — is NOT safe for concurrent use. The contract is
// single-writer: exactly one goroutine mutates a pool (through
// Place/Exit/Migrate and Reserve/Release, which keep the aggregates
// consistent and which only internal/sim calls from outside this package),
// and no other goroutine
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
// outcomes: Place/Exit/Migrate and Reserve/Release publish HostChanged,
// AddHosts/RemoveHost
// the membership events, and InvalidateHost is the explicit channel for
// out-of-band changes (Unavailable flips, which sim.Control alone makes,
// and changes to a policy's own per-host state, such as a timer firing in
// OnTick). Subscribers run
// synchronously under the same single-writer contract and typically just
// flip dirty bits — the scheduler's incremental score caches are built on
// this surface (see internal/scheduler and DESIGN.md §6).
//
// # Memory layout
//
// A pool's hosts live in slabs: NewPool and AddHosts allocate each batch
// of hosts as one []Host, so a pool costs a few allocations whatever its
// size. Pool.Host indexes the ID-sorted host slice directly on a pool
// that has only grown and binary-searches it otherwise; there is no host-ID
// map. Running VMs are indexed by ID (Pool.VM), and a VM's Host field names
// its host, so an exit or a migration finds its VM without scanning a
// host. A VM carries one flag for its policy (VM.Mark), which the pool
// never reads or writes. Pool.CheckInvariants walks the hosts' own VM
// slices and the few live reservations and allocates nothing, so a test
// may run it after every operation (FuzzPoolOps does).
//
// # Reservations
//
// A Reservation is capacity held on a host that no VM occupies: a live
// migration's copy window on its target (§4.4). Pool.Reserve adds its
// shape to the host's used vector and to the aggregates, and a per-host
// count in the host's padding keeps the host from being empty while it
// lasts; Pool.Release gives it back, and ends the host's occupancy when no
// VM and no reservation is left. Host.VMs, EachVM and NumVMs, Pool.VM and
// NumVMs see only VMs, so neither a policy nor its predictor meets a
// reservation.
package cluster
