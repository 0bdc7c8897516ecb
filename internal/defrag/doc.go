// Package defrag implements host defragmentation with live migration
// (§4.4, Appendix H) and the LARS ordering optimization.
//
// When the empty-host fraction of a pool drops below a threshold, the
// defragmenter picks candidate hosts (fewest VMs, most excess resources),
// stops scheduling onto them, and live-migrates their VMs away using the
// same scheduling algorithm as initial placement: the run's own policy.
// Migrations run in batches of at most 3 (the production limit, §5.1) and
// occupy capacity on both hosts for a conservative 20 minutes (§4.4).
//
// LARS (Lifetime-Aware ReScheduling) changes only the order in which a
// drained host's VMs migrate: longest predicted remaining lifetime first
// (Algorithm 1). Short-lived VMs then exit naturally while the long ones
// copy, and every such exit saves one live migration (Table 2 reports
// ≈4.3–4.6% savings).
//
// Engine is a sim.Injector that keeps only its queue and its ordering; it
// writes nothing to the pool or its hosts itself. It drains hosts through
// sim.Control's reference-counted Withdraw and Restore, asks
// Control.Schedule for each target, holds the target's capacity for the
// copy window with Control.Reserve and Control.Release, and moves each VM
// with Control.Migrate, which tells the run's policy. A copy window is
// pool capacity, not a VM: the drains, the policy and its predictor see
// only VMs, and a host whose last occupant is a released window goes
// empty like any other. Its migrations are not traced, so sim.Replay
// cannot replay a defragmenter run. ReplayPlan re-runs a recorded plan
// under another order through a queue of the same batch limit.
package defrag
