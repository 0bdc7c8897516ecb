// Package cell federates a workload across multiple independent cells. The
// paper's fleet is many Borg cells, each scheduled in isolation; this
// package holds the one routing ledger that assigns VMs to cells, shards a
// pool-level trace into N per-cell traces through it, so the per-cell
// simulations stay independent jobs that internal/runner fans out, and
// rolls the per-cell results back up into fleet-level metrics.
//
// Routing is a deterministic function of the event stream (creates and
// exits in canonical trace order), never of simulation state, so a
// federation replays identically at any worker count — the same determinism
// contract as internal/runner — and identically offline (Shard) and online
// (internal/serve walks the live request stream through the same Ledger).
// The two differ only for live traffic whose exits are not the trace's.
package cell
