package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lava/internal/cluster"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// GenStream is an incremental synthetic-trace generator: the same record
// sequence Generate materializes, yielded one VM at a time so multi-
// million-VM scale traces can feed the simulator with O(1) resident
// generator state. Arrivals are emitted in nondecreasing time with
// strictly increasing IDs, so the emission order already is the canonical
// (arrival, ID) trace order.
type GenStream struct {
	spec  PoolSpec
	mix   []TypeSpec
	names []typeNames // parallel to mix
	wsum  float64

	lambda float64
	meta   *trace.Trace
	rng    *rand.Rand
	total  time.Duration
	id     cluster.VMID
	now    time.Duration
	done   bool
	err    error
}

// Stream validates the spec, calibrates the arrival rate and returns a
// positioned generator cursor. The record sequence is deterministic in
// spec.Seed and identical to Generate's (which is now a collect over this
// cursor).
func Stream(spec PoolSpec) (*GenStream, error) {
	if spec.Hosts <= 0 {
		return nil, fmt.Errorf("workload: pool %q has no hosts", spec.Name)
	}
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("workload: pool %q has no duration", spec.Name)
	}
	if spec.TargetUtil <= 0 || spec.TargetUtil >= 1 {
		return nil, fmt.Errorf("workload: pool %q target utilization %v out of (0,1)", spec.Name, spec.TargetUtil)
	}
	mix := spec.Mix
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	shape := spec.HostShape
	if shape.IsZero() {
		shape = DefaultHostShape
	}

	// Calibrate the arrival rate so the *binding* resource dimension
	// reaches the target utilization in steady state: running demand per
	// dimension is lambda (VMs/h) x E[shape_dim x lifetime-hours].
	var wsum, coreHoursPerVM, memMBHoursPerVM float64
	for i := range mix {
		wsum += mix[i].Weight
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("workload: pool %q mix has zero weight", spec.Name)
	}
	for i := range mix {
		w := mix[i].Weight / wsum
		life := mix[i].meanLifetimeHours()
		coreHoursPerVM += w * mix[i].meanCores() * life
		memMBHoursPerVM += w * mix[i].meanCores() * float64(mix[i].MemPerCoreMB) * life
	}
	totalCores := float64(shape.CPUMilli) / 1000 * float64(spec.Hosts)
	totalMemMB := float64(shape.MemoryMB) * float64(spec.Hosts)
	lambda := spec.TargetUtil * totalCores / coreHoursPerVM // VMs per hour
	if memLambda := spec.TargetUtil * totalMemMB / memMBHoursPerVM; memLambda < lambda {
		lambda = memLambda
	}

	names := make([]typeNames, len(mix))
	for i := range mix {
		names[i] = newTypeNames(&mix[i])
	}
	return &GenStream{
		spec:   spec,
		mix:    mix,
		names:  names,
		wsum:   wsum,
		lambda: lambda,
		meta: &trace.Trace{
			PoolName: spec.Name,
			Hosts:    spec.Hosts,
			HostCPU:  shape.CPUMilli,
			HostMem:  shape.MemoryMB,
			HostSSD:  shape.SSDGB,
			WarmUp:   spec.Prefill,
			Horizon:  spec.Prefill + spec.Duration,
		},
		rng:   rand.New(rand.NewSource(spec.Seed)),
		total: spec.Prefill + spec.Duration,
		id:    spec.FirstVMID,
	}, nil
}

// Meta returns the trace geometry (pool name, hosts, host shape, warm-up,
// horizon) with an empty Records slice — what sim.NewMachine needs. The
// horizon is always set, so a streamed run has a well-defined measurement
// end without knowing the last exit.
func (g *GenStream) Meta() *trace.Trace { return g.meta }

// Next implements trace.Stream. The per-iteration RNG call order is the
// contract that keeps this bit-identical to the historical Generate loop:
// gap draw, end-of-window check, type pick, then the VM sample.
func (g *GenStream) Next() (trace.Record, bool) {
	if g.done {
		return trace.Record{}, false
	}
	// Diurnally modulated Poisson arrivals via rate scaling.
	rate := g.lambda
	if g.spec.Diurnal > 0 {
		phase := 2 * math.Pi * g.now.Hours() / 24
		rate = g.lambda * (1 + g.spec.Diurnal*math.Sin(phase))
	}
	gap := g.rng.ExpFloat64() / rate // hours
	g.now += simtime.FromHours(gap)
	if g.now >= g.total {
		g.done = true
		return trace.Record{}, false
	}
	ti := pickType(g.rng, g.mix, g.wsum)
	rec := sampleVM(g.rng, &g.mix[ti], &g.names[ti], g.id, g.now, g.spec.Zone)
	g.id++
	if !rec.Shape.Fits(g.meta.HostShape()) {
		// The structural subset of Trace.Validate that a custom HostShape
		// can actually violate; everything else holds by construction.
		g.done = true
		g.err = fmt.Errorf("workload: pool %q vm %d shape %s exceeds host %s", g.spec.Name, rec.ID, rec.Shape, g.meta.HostShape())
		return trace.Record{}, false
	}
	return rec, true
}

// Err implements trace.Stream.
func (g *GenStream) Err() error { return g.err }
