// Package serve turns the LAVA stack into an online placement service: a
// long-running daemon (cmd/lavad) that answers VM placement and exit
// requests over an HTTP JSON API instead of replaying a prerecorded trace
// offline.
//
// # Architecture
//
// The server is built around a single-writer event loop over a
// sim.Machine — the same incremental stepping engine internal/sim's
// offline Run uses. All pool and policy mutation happens on the loop
// goroutine; HTTP handlers only build request values, enqueue them on the
// admission queue, and wait for their response. This preserves
// cluster.Pool's single-writer concurrency contract without a single lock
// around the hot path, and it is what makes a served replay byte-identical
// to an offline simulation: both drive one engine, in one goroutine, in
// one deterministic order.
//
// # Admission batching and determinism
//
// The admission queue is a buffered channel. Each loop iteration drains
// everything currently queued into a batch and orders it canonically —
// by virtual time, then exits before placements (the trace event-stream
// convention), then VM ID — so one batch of concurrent requests is
// processed the same way regardless of goroutine arrival interleaving.
//
// Clients that need *global* determinism (the replay client, the parity
// test) additionally stamp each request with a strictly increasing
// sequence number. Sequenced requests pass through a reorder buffer: the
// loop processes seq 1, 2, 3, ... in order no matter how the concurrent
// HTTP deliveries interleave, so an 8-way concurrent replay of a trace
// makes exactly the same placement decisions as `lava.Simulate` on that
// trace.
//
// # Hot-route codec
//
// /place and /exit are nearly every request, so their wire types have
// hand-written codecs (codec.go) under an accept-or-decline contract: an
// encoder writes exactly json.Marshal's bytes or declines, a parser accepts
// exactly what its encoder writes or declines, and whoever is declined goes
// through the encoding/json call every other route uses. Accepted language,
// status codes and error messages are therefore encoding/json's;
// FuzzHotRouteCodec checks the equivalence.
//
// There is no prediction memo-cache: it keyed on raw-nanosecond uptime,
// which repredictions never repeat (DESIGN.md, serving point 6). Memoize,
// Config.Memo and MemoStats remain as deprecated shims for bench/.
//
// # Drain and snapshot semantics
//
// /snapshot reads the pool's current bin-packing metrics without advancing
// virtual time. /drain performs the graceful shutdown handshake: new
// mutating requests are rejected with 503, everything already admitted
// (including buffered sequenced requests) is processed, the machine is
// advanced to its horizon, and the final post-warm-up aggregates — the
// exact fields an offline run reports — are computed once and returned.
// Reads keep working on the frozen pool after the drain.
//
// # Federation (Fleet): leaf and node
//
// Fleet puts N Servers — one pool, policy and event loop each — behind a
// single front-end with the same HTTP surface, which is how the serving
// path uses more than one core: cells advance independently and only meet
// at routing, stats rollup and drain. A Server answers a leaf and a Fleet a
// node of its cells' leaves, in one recursive payload type per endpoint:
// Stats (node fields router, cells, retired_cells, cell_stats) and
// DrainResponse (router, hosts, util_spread, cells — rolled up through
// cell.RollUp). A node keeps its totals in the fields a leaf uses and the
// node fields are omitted from a leaf, so a single server's documents are
// what they were before there was a fleet, a single-pool client reads a
// fleet unchanged, and Client.Stats / Client.Drain decode either.
//
// Placements route through cell.Ledger, the one routing implementation —
// round-robin, feature-hash, least-utilized over committed CPU per host.
// Offline, cell.Shard walks a trace's event stream through the ledger;
// online, the fleet walks the live request stream through the same Route
// and Exit methods. All three routers are therefore byte-identical between
// online and offline on replays, and they differ only for live traffic
// whose exits are not the trace's.
//
// FleetConfig embeds Config: a cell's config is a copy of the embedded one
// with its own pool name, host count, policy and injectors (cellConfig), so
// there is one config chain from the facade down to every event loop.
//
// Everything a fleet does to its cells is an Op — place, exit, tick and the
// seven /admin elasticity ops — and every Op takes one path:
//
//	Op → topology.plan → steps → Fleet.Do (online) | RunScriptOffline (offline)
//
// plan is the single expansion: it validates the op against the topology
// ledger (host counts, routable/retired masks, the commitment ledger, the
// VM→cell map, the front-door admission gate), commits it, and returns the
// cell-level steps — plain request values, each naming its cell — that carry
// it out. A placement plans to one step in the cell the router picked, an
// exit to one step in the cell that admitted the VM, a tick to one step per
// live cell, a merge to a host grow plus a MigrateOut→MigrateIn pair per VM;
// a cell drain plans to no step at all.
//
// Online, Fleet.Do is the one executor. A global reorder stage admits
// fleet-wide sequence numbers strictly in order; at its turn an op is
// planned under the fleet mutex, each step is stamped with its cell's own
// contiguous sequence number, and the turn is released — consumed even when
// the ledger refused the op, so nothing ever parks behind a failure. The
// steps then dispatch without the lock — all enqueued before the first
// answer is awaited, so a tick's cells work in parallel; only a MigrateIn
// waits, for the VM its MigrateOut hands over — and each cell's reorder
// buffer restores that cell's order. Offline, RunScriptOffline is a plain loop over
// the same plan, applying each step to a bare sim.Machine through applyTo,
// the switch the cell event loop itself uses. The two arms share the ledger
// code, the expansion and the step semantics, so every cell observes online
// exactly the event subsequence it is handed offline: the parity tests
// assert byte-equal drain reports against RunScriptOffline. It is the one
// offline engine of a fleet — the facade's SimulateScenario and
// ReplayFleetOffline and cmd/lavasim all run it — and cell.PlanCells +
// per-shard sim.Run, which shares none of plan/runSteps/applyTo, is kept only
// as the independent oracle the tests diff both arms against.
//
// # HTTP surface
//
// Both Handler methods return routes(b), one route table over a small
// backend interface: the Place/ExitVM/Tick surface a Server and a Fleet
// share, plus Stats, snapshot, drainReport and tracers. A backend that can
// also Do an Op — the Fleet — gets the /admin routes, each a direct Do.
// There is one /trace handler: a leaf answers its recorder's page, a node
// one page per queried cell. Every route is built from two generic
// constructors: post[Req, Resp] (method check, body bounded at 1 MiB,
// strict decode, the validate check the route registers, error-to-status
// mapping) and noBody[Resp] for the reads and /drain. A malformed,
// oversized or invalid request is answered before it takes a sequence
// number, identically by a Server and a Fleet.
package serve
