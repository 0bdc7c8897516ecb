// Package scenario is the declarative scenario layer of the simulator: a
// catalog of typed operational-event injectors that compose onto any trace.
// The paper evaluates lifetime-aware allocation under steady production
// traffic; real cells also see arrival surges, maintenance-drain waves,
// correlated host failures, capacity crunches and bad model pushes. A
// scenario is a seeded list of such events; composing it onto a trace and a
// policy yields a reproducible what-if run.
//
// Events act at three layers, and a single Spec may mix all three:
//
//   - TraceEvent rewrites the arrival stream before the run (Surge).
//   - TickEvent compiles into a sim.Injector driven by the simulator clock:
//     DrainWave, Failures and Crunch all build one claim-window injector,
//     whose windows withdraw a block of hosts when they open and restore it
//     when they close. Each tick walks the windows in order, and opens a
//     window that is due before it closes it.
//   - ModelEvent wraps the lifetime predictor (ModelSwap).
//
// Everything is deterministic given Spec.Seed: trace composition draws from
// one seeded stream, and each tick event derives a stable per-event,
// per-cell seed, so multi-cell federations (internal/cell) replay
// identically at any worker count.
package scenario
