package model

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
)

// walkRemaining is PredictRemaining without the step tables: encode, one
// forest walk, 10^x, clamp — the pipeline the tables must reproduce.
func walkRemaining(g *GBDTPredictor, vm *cluster.VM, uptime time.Duration) time.Duration {
	x := g.Enc.Encode(vm.Feat, uptimeLog10(uptime))
	return clampRemaining(simtime.FromHours(math.Pow(10, g.M.Predict(x))))
}

// stepUptimes returns the uptimes at which a step table can change its
// answer — every uptime edge of the model as a duration, and a nanosecond
// either side — plus the ends of the range.
func stepUptimes(g *GBDTPredictor) []time.Duration {
	ups := []time.Duration{0, 1, 30 * simtime.Day}
	for _, e := range g.M.Edges[uptimeCol] {
		d := simtime.FromHours(math.Pow(10, e))
		ups = append(ups, d-1, d, d+1)
	}
	return ups
}

// trainedWithVMs trains a small GBDT on a generated trace and returns it
// with one VM per record, plus VMs of categories training never saw.
func trainedWithVMs(t testing.TB, days int, seed int64, p gbdt.Params) (*GBDTPredictor, []*cluster.VM) {
	t.Helper()
	tr := testTrace(t, days, seed)
	g, err := TrainGBDT(tr.Records, p)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*cluster.VM
	for _, r := range tr.Records {
		vms = append(vms, vmFromRecord(r))
	}
	unseen := vmFromRecord(tr.Records[0])
	unseen.Feat.Zone, unseen.Feat.VMCategory, unseen.Feat.MetadataID = "nowhere", "never-seen", "nobody"
	unseen.Feat.CPUMilli, unseen.Feat.MemoryMB = 1<<40, -5
	vms = append(vms, unseen, &cluster.VM{ID: 1 << 40})
	return g, vms
}

func TestGBDTStepTablesMatchTheWalk(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 31, gbdt.Params{Trees: 30})
	ups := stepUptimes(g)
	for _, vm := range vms {
		for _, up := range ups {
			want := walkRemaining(g, vm, up)
			if first := g.PredictRemaining(vm, up); first != want {
				t.Fatalf("vm %d uptime %v: first call %v, walk %v", vm.ID, up, first, want)
			}
			if again := g.PredictRemaining(vm, up); again != want {
				t.Fatalf("vm %d uptime %v: repeat call %v, walk %v", vm.ID, up, again, want)
			}
		}
	}
	tabs := g.stepTables()
	if len(tabs) == 0 || len(tabs) >= len(vms) {
		t.Fatalf("%d step tables for %d VMs: tables must be shared by VM type", len(tabs), len(vms))
	}
	for _, tab := range tabs {
		if len(tab) != len(g.M.Edges[uptimeCol])+1 {
			t.Fatalf("step table has %d entries, want one per uptime bin (%d)", len(tab), len(g.M.Edges[uptimeCol])+1)
		}
	}

}

// TestGBDTStepTableCap pushes a predictor past maxStepTables distinct VM
// types: the first maxStepTables get tables, the rest are walked, and every
// answer still equals the walk.
func TestGBDTStepTableCap(t *testing.T) {
	// A forest over columns drawn uniformly, so the cpu and memory columns
	// have ~64 bins each: 64 x 64 x 2 VM types.
	rng := rand.New(rand.NewSource(41))
	X := make([][]float64, 4000)
	y := make([]float64, len(X))
	for i := range X {
		x := make([]float64, features.NumColumns)
		x[5] = float64(rng.Intn(2))
		x[8], x[9] = rng.Float64()*64, rng.Float64()*64
		x[uptimeCol] = rng.Float64()*6 - 4
		X[i], y[i] = x, 0.02*x[8]-0.01*x[9]+x[5]-0.3*x[uptimeCol]
	}
	m, err := gbdt.Train(X, y, gbdt.Params{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := &GBDTPredictor{Enc: features.Fit(nil), M: m}

	var vms []*cluster.VM
	types := map[staticBins]bool{}
	for cpu := int64(0); cpu < 64; cpu++ {
		for mem := int64(0); mem < 64; mem++ {
			for _, ssd := range []bool{false, true} {
				vm := &cluster.VM{ID: cluster.VMID(len(vms))}
				vm.Feat.CPUMilli, vm.Feat.MemoryMB, vm.Feat.HasSSD = cpu*1000+500, mem*1024+512, ssd
				vms = append(vms, vm)
				bins := m.AppendBins(nil, g.Enc.Encode(vm.Feat, 0))
				types[staticBins(bins[:uptimeCol])] = true
			}
		}
	}
	if len(types) <= maxStepTables {
		t.Fatalf("only %d VM types: the test must cross the cap of %d", len(types), maxStepTables)
	}
	ups := []time.Duration{0, time.Hour, 3 * simtime.Day}
	for pass := 0; pass < 2; pass++ {
		for _, vm := range vms {
			for _, up := range ups {
				if got, want := g.PredictRemaining(vm, up), walkRemaining(g, vm, up); got != want {
					t.Fatalf("pass %d vm %d uptime %v: %v, walk %v", pass, vm.ID, up, got, want)
				}
			}
		}
	}
	if n := len(g.stepTables()); n != maxStepTables {
		t.Fatalf("%d step tables, want the cap %d", n, maxStepTables)
	}
}

// TestGBDTPredictConcurrently shares one cold predictor between goroutines
// that race to create and fill the same tables (run under -race).
func TestGBDTPredictConcurrently(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 33, gbdt.Params{Trees: 10})
	ups := stepUptimes(g)
	want := make([][]time.Duration, len(vms))
	for i, vm := range vms {
		for _, up := range ups {
			want[i] = append(want[i], walkRemaining(g, vm, up))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(vms))
			for _, i := range order {
				for j, up := range ups {
					if got := g.PredictRemaining(vms[i], up); got != want[i][j] {
						t.Errorf("worker %d vm %d uptime %v: %v, sequential walk %v", w, vms[i].ID, up, got, want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestGBDTWarmPredictionDoesNotAllocate(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 35, gbdt.Params{Trees: 10})
	vms = vms[:64]
	ups := []time.Duration{0, 90 * time.Second, 5 * time.Hour, 2 * simtime.Day}
	predictAll := func() {
		for _, vm := range vms {
			for _, up := range ups {
				g.PredictRemaining(vm, up)
			}
		}
	}
	predictAll()
	if n := testing.AllocsPerRun(10, predictAll); n != 0 {
		t.Fatalf("warm PredictRemaining allocates %v times per %d calls", n, len(vms)*len(ups))
	}
}

var sinkRemaining time.Duration

// BenchmarkPredictRemaining is the model layer's row: one reprediction of a
// VM of the generated workload. cold starts every batch of len(vms) x 4
// calls from a predictor without tables (what the first placements of a run
// pay); warm repeats calls whose table entries are filled.
func BenchmarkPredictRemaining(b *testing.B) {
	g, vms := trainedWithVMs(b, 3, 37, gbdt.Params{Trees: 100})
	ups := []time.Duration{0, 90 * time.Second, 5 * time.Hour, 2 * simtime.Day}
	batch := len(vms) * len(ups)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var p *GBDTPredictor
		for i := 0; i < b.N; i++ {
			k := i % batch
			if k == 0 {
				p = &GBDTPredictor{Enc: g.Enc, M: g.M}
			}
			sinkRemaining = p.PredictRemaining(vms[k/len(ups)], ups[k%len(ups)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		for k := 0; k < batch; k++ {
			g.PredictRemaining(vms[k/len(ups)], ups[k%len(ups)])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % batch
			sinkRemaining = g.PredictRemaining(vms[k/len(ups)], ups[k%len(ups)])
		}
	})
}
