package stranding

import (
	"slices"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/sim"
	"lava/internal/trace"
)

func TestMeasureEmptyPoolNoStranding(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(32, 131072, 0))
	mix := []resources.Vector{resources.Cores(4, 16384, 0)}
	res, err := Measure(p, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4-core VMs tile a 32-core host perfectly: nothing strands.
	if res.StrandedCPUFrac != 0 || res.StrandedMemFrac != 0 {
		t.Fatalf("stranding on tileable empty pool: %+v", res)
	}
	if res.VMsPlaced != 32 {
		t.Fatalf("placed %d, want 32", res.VMsPlaced)
	}
}

func TestMeasureDetectsImbalancedFreeShapes(t *testing.T) {
	p := cluster.NewPool("t", 1, resources.Cores(32, 131072, 0))
	// Occupy all CPU but little memory: remaining memory is stranded.
	hog := &cluster.VM{ID: 1, Shape: resources.Vector{CPUMilli: 32000, MemoryMB: 1024}}
	if err := p.Place(hog, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	mix := []resources.Vector{resources.Cores(1, 4096, 0)}
	res, err := Measure(p, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMsPlaced != 0 {
		t.Fatalf("placed %d on a CPU-exhausted host", res.VMsPlaced)
	}
	if res.StrandedMemFrac < 0.9 {
		t.Fatalf("stranded memory = %v, want ~0.99", res.StrandedMemFrac)
	}
}

func TestMeasureDoesNotMutatePool(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(8, 32768, 0))
	if err := p.Place(&cluster.VM{ID: 1, Shape: resources.Cores(2, 8192, 0)}, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	before := p.NumVMs()
	if _, err := Measure(p, []resources.Vector{resources.Cores(1, 4096, 0)}, 0); err != nil {
		t.Fatal(err)
	}
	if p.NumVMs() != before {
		t.Fatal("Measure mutated the live pool")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureRejectsEmptyMix(t *testing.T) {
	p := cluster.NewPool("t", 1, resources.Cores(8, 32768, 0))
	if _, err := Measure(p, nil, 0); err == nil {
		t.Fatal("empty mix must fail")
	}
}

func TestMeasureSkipsUnavailableHosts(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(8, 32768, 0))
	if err := p.Withdraw(0); err != nil {
		t.Fatal(err)
	}
	res, err := Measure(p, []resources.Vector{resources.Cores(8, 32768, 0)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMsPlaced != 1 {
		t.Fatalf("placed %d, want 1 (one host drained)", res.VMsPlaced)
	}
}

func TestMixFromTrace(t *testing.T) {
	recs := []trace.Record{
		{ID: 1, Shape: resources.Cores(2, 8192, 0)},
		{ID: 2, Shape: resources.Cores(2, 8192, 0)},
		{ID: 3, Shape: resources.Cores(2, 8192, 0)},
		{ID: 4, Shape: resources.Cores(16, 65536, 0)},
	}
	mix := MixFromTrace(recs, 8)
	if len(mix) != 2 {
		t.Fatalf("mix size = %d, want 2", len(mix))
	}
	// Most common shape first.
	if mix[0] != resources.Cores(2, 8192, 0) {
		t.Fatalf("mix[0] = %v", mix[0])
	}
	if got := MixFromTrace(recs, 1); len(got) != 1 {
		t.Fatalf("maxShapes not honored: %d", len(got))
	}
}

func TestProber(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(8, 32768, 0))
	pr := &Prober{Mix: []resources.Vector{resources.Cores(1, 4096, 0)}, Every: time.Hour}
	ctl := sim.NewControl(p, nil, nil)
	pr.Inject(ctl, 0)
	pr.Inject(ctl, 10*time.Minute) // within interval: no new measurement
	pr.Inject(ctl, time.Hour)
	if len(pr.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(pr.Results))
	}
	if avg := pr.AvgStrandedCPU(0); avg != 0 {
		t.Fatalf("empty pool stranded = %v", avg)
	}
	if avg := pr.AvgStrandedCPU(2 * time.Hour); avg != 0 {
		t.Fatal("from-filter broken")
	}
}

// TestMeasureFixedPool packs a fixed scatter of VMs, with one host out of
// service, and checks the result against literals recorded from the
// cloned-pool form of Measure. The live pool must come out unchanged.
func TestMeasureFixedPool(t *testing.T) {
	p := cluster.NewPool("t", 6, resources.Cores(32, 131072, 0))
	shapes := []resources.Vector{
		resources.Cores(6, 8192, 0),
		resources.Cores(2, 30000, 0),
		resources.Vector{CPUMilli: 10500, MemoryMB: 20000},
	}
	for i := 0; i < 14; i++ {
		vm := &cluster.VM{ID: cluster.VMID(i + 1), Shape: shapes[i%len(shapes)]}
		if err := p.Place(vm, p.Host(cluster.HostID(i*5%6))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Withdraw(4); err != nil {
		t.Fatal(err)
	}
	type usage struct {
		used resources.Vector
		vms  int
	}
	snapshot := func() []usage {
		var out []usage
		for _, h := range p.Hosts() {
			out = append(out, usage{h.Used(), h.NumVMs()})
		}
		return out
	}
	before := snapshot()
	mix := []resources.Vector{resources.Cores(8, 16384, 0), resources.Cores(4, 32768, 0), resources.Cores(1, 2048, 0)}
	res, err := Measure(p, mix, 3*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Time: 3 * time.Hour, StrandedCPUFrac: 0.18229166666666666, StrandedMemFrac: 0.33514404296875, VMsPlaced: 21}
	if res != want {
		t.Fatalf("Measure = %+v, want %+v", res, want)
	}
	if after := snapshot(); !slices.Equal(before, after) {
		t.Fatalf("Measure changed the live pool: %v, was %v", after, before)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
