// Package sim is the event-driven simulator of §5.1: it replays a trace of
// VM start and exit events against a simulated pool driven by a real
// scheduling policy, samples bin-packing metrics over time, and runs
// injectors (defragmentation engines, stranding probes, scenario events) on
// the periodic tick. Injectors act through Control, the only writer of a
// host's Unavailable flag.
package sim
