// Package stranding implements the inflation-simulation stranding metric of
// §2.3: "take a representative mix of VMs and simulate scheduling as many as
// possible until capacity is exhausted. The remaining resources on hosts
// represent stranded resources that cannot fit new VMs." Prober, a
// read-only sim.Injector, takes that measurement periodically during a run.
package stranding
