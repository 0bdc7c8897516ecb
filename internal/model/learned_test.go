package model

import (
	"math"
	"math/rand"
	"slices"
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
	tabs := g.steps
	if len(tabs) == 0 || len(tabs) >= len(vms) {
		t.Fatalf("%d step tables for %d VMs: tables must be shared by VM type", len(tabs), len(vms))
	}
	for key, tab := range tabs {
		if len(tab) != len(g.M.Edges[uptimeCol])+1 {
			t.Fatalf("step table has %d entries, want one per uptime bin (%d)", len(tab), len(g.M.Edges[uptimeCol])+1)
		}
		// Every entry, not only those the probed uptimes reach, is the walk
		// of its bin vector.
		for v, got := range tab {
			bins := key.with(uint8(v))
			if want := remaining(g.M.PredictBinned(bins[:])); got != want {
				t.Fatalf("table %v bin %d: %v, walk %v", key, v, got, want)
			}
		}
	}
}

// TestStepsMatchPredictRemaining: a VM's bound step function, read
// directly and through a cursor, answers exactly what PredictRemaining and
// the forest walk answer, at every step edge, at random uptimes, and at
// negative ones.
func TestStepsMatchPredictRemaining(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 43, gbdt.Params{Trees: 30})
	rng := rand.New(rand.NewSource(43))
	ups := append(stepUptimes(g), -1, -time.Hour, math.MinInt64, math.MaxInt64)
	for i := 0; i < 64; i++ {
		ups = append(ups, time.Duration(rng.Int63n(int64(30*simtime.Day))))
	}
	// Binding alone, as the scheduler's exit cache does, leaves the per-VM
	// slots unbuilt: only the unbound path reads them.
	for _, vm := range vms {
		g.Steps(vm)
	}
	if g.slots.Load() != nil {
		t.Fatal("Steps built the per-VM slots")
	}
	for _, vm := range vms {
		fn, ok := g.Steps(vm)
		if !ok {
			t.Fatalf("vm %d: no step function below the table cap", vm.ID)
		}
		if len(fn.At) >= len(fn.Rem) || !slices.IsSorted(fn.At) {
			t.Fatalf("vm %d: %d thresholds for %d steps, sorted %v", vm.ID, len(fn.At), len(fn.Rem), slices.IsSorted(fn.At))
		}
		cur := StepCursor{Fn: fn}
		// A cursor meets uptimes in any order: growing, then shuffled.
		order := slices.Clone(ups)
		slices.Sort(order[:len(order)/2])
		for _, up := range order {
			want := g.PredictRemaining(vm, up)
			if walk := walkRemaining(g, vm, up); walk != want {
				t.Fatalf("vm %d uptime %v: PredictRemaining %v, walk %v", vm.ID, up, want, walk)
			}
			if got := fn.Remaining(up); got != want {
				t.Fatalf("vm %d uptime %v: Steps %v, PredictRemaining %v", vm.ID, up, got, want)
			}
			if got := cur.Remaining(up); got != want {
				t.Fatalf("vm %d uptime %v: cursor %v, PredictRemaining %v", vm.ID, up, got, want)
			}
		}
	}
}

// identitySteps is a StepFn over the uptime edges whose answer is the bin
// itself, in nanoseconds.
func identitySteps(edges []float64) StepFn {
	fn := StepFn{At: uptimeSteps(edges), Rem: make([]time.Duration, len(edges)+1)}
	for k := range fn.Rem {
		fn.Rem[k] = time.Duration(k)
	}
	return fn
}

// FuzzUptimeSteps checks the logarithm-free uptime bins against the
// logarithm: for sorted finite edges decoded from the input, every uptime
// next to u and next to each threshold lands in uptimeBin(edges,
// uptimeLog10(uptime)), and span's step holds the uptime and only uptimes
// of its bin.
func FuzzUptimeSteps(f *testing.F) {
	enc := func(edges ...float64) []byte {
		var b []byte
		for _, e := range edges {
			v := int16(math.Round(e * 2048))
			b = append(b, byte(v), byte(v>>8))
		}
		return b
	}
	f.Add(enc(-4, -3.5563, -3.5, -2, -1, 0, 0.5, 1, 1.5, 2, 2.2), int64(time.Hour))
	f.Add(enc(-4, -4, -3.5563, -3.5563, 6.4, 6.5, 7), int64(1))
	f.Add(enc(-16, -5, 15.99), int64(math.MaxInt64))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, u int64) {
		// Two bytes an edge, in 1/2048 log10-hours over [-16, 16): far
		// past both ends of the Duration range.
		var edges []float64
		for i := 0; i+1 < len(data) && len(edges) < 255; i += 2 {
			edges = append(edges, float64(int16(uint16(data[i])|uint16(data[i+1])<<8))/2048)
		}
		slices.Sort(edges)
		fn := identitySteps(edges)
		binOf := func(up time.Duration) time.Duration { return time.Duration(uptimeBin(edges, uptimeLog10(up))) }
		check := func(up time.Duration) {
			want := binOf(up)
			rem, lo, hi := fn.span(up)
			if rem != want {
				t.Fatalf("edges %v uptime %d: threshold bin %d, log bin %d (thresholds %v)", edges, up, rem, want, fn.At)
			}
			if !(lo <= up && up < hi || up == math.MaxInt64 && hi == math.MaxInt64) {
				t.Fatalf("edges %v uptime %d: span [%d, %d) misses it", edges, up, lo, hi)
			}
			if lo > 0 && binOf(lo) != want || lo > 0 && binOf(lo-1) == want {
				t.Fatalf("edges %v uptime %d: span starts at %d, not where bin %d starts", edges, up, lo, want)
			}
			if hi < math.MaxInt64 && (binOf(hi-1) != want || binOf(hi) == want) {
				t.Fatalf("edges %v uptime %d: span ends at %d, not where bin %d ends", edges, up, hi, want)
			}
		}
		if u < 0 {
			u = ^u
		}
		u = min(u, math.MaxInt64-1)
		for _, up := range []time.Duration{time.Duration(u) - 1, time.Duration(u), time.Duration(u) + 1} {
			check(up)
		}
		for _, at := range fn.At {
			for _, up := range []time.Duration{at - 1, at, at + 1} {
				if up >= -1 && up < math.MaxInt64 {
					check(up)
				}
			}
		}
	})
}

// TestGBDTHugeOutputCaps: a forest output past the Duration range is the
// largest lifetime there is, so it clamps to CapLifetime, not to the
// 1-minute floor.
func TestGBDTHugeOutputCaps(t *testing.T) {
	m := &gbdt.Model{Bias: 10, Edges: make([][]float64, features.NumColumns), NumFeat: features.NumColumns}
	g := &GBDTPredictor{Enc: features.Fit(nil), M: m}
	vm := &cluster.VM{ID: 1, Feat: features.Features{CPUMilli: 1000, MemoryMB: 1024}}
	for _, up := range []time.Duration{0, time.Hour, 3 * simtime.Day} {
		if got := g.PredictRemaining(vm, up); got != simtime.CapLifetime {
			t.Fatalf("uptime %v: %v, want CapLifetime %v", up, got, simtime.CapLifetime)
		}
	}
}

// TestGBDTSlotsFollowTheFeatures: a VM ID that comes back with other
// features — reused after an exit, or shared by two pools — or that lands
// in another VM's slot gets the answer of the VM in hand.
func TestGBDTSlotsFollowTheFeatures(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 39, gbdt.Params{Trees: 20})
	first := vms[0]
	var other *cluster.VM
	for _, vm := range vms[1:] {
		if walkRemaining(g, vm, 0) != walkRemaining(g, first, 0) {
			other = vm
			break
		}
	}
	if other == nil {
		t.Fatal("every VM has the first one's prediction")
	}
	reused := *other
	reused.ID = first.ID
	collides := *other
	collides.ID = first.ID + numSlots
	ups := stepUptimes(g)
	for pass := 0; pass < 2; pass++ {
		for _, vm := range []*cluster.VM{first, &reused, first, &collides, first} {
			for _, up := range ups {
				if got, want := g.PredictRemaining(vm, up), walkRemaining(g, vm, up); got != want {
					t.Fatalf("pass %d vm %d (%s) uptime %v: %v, walk %v", pass, vm.ID, vm.Feat.MetadataID, up, got, want)
				}
			}
		}
	}
}

// TestGBDTStepTableCap pushes a predictor past maxStepTables distinct VM
// types, and past maxStepMemo distinct features: the first maxStepTables
// types get tables, the rest are walked (and declined by Steps), the memo
// stops at its bound, and every answer, through PredictRemaining or Steps,
// still equals the walk.
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
	if len(types) <= maxStepTables || len(vms) <= maxStepMemo {
		t.Fatalf("only %d VM types over %d features: the test must cross the caps of %d and %d",
			len(types), len(vms), maxStepTables, maxStepMemo)
	}
	ups := []time.Duration{0, time.Hour, 3 * simtime.Day}
	declined := 0
	for pass := 0; pass < 2; pass++ {
		for _, vm := range vms {
			fn, ok := g.Steps(vm)
			if !ok {
				declined++
			}
			for _, up := range ups {
				want := walkRemaining(g, vm, up)
				if got := g.PredictRemaining(vm, up); got != want {
					t.Fatalf("pass %d vm %d uptime %v: %v, walk %v", pass, vm.ID, up, got, want)
				}
				if !ok {
					continue
				}
				if got := fn.Remaining(up); got != want {
					t.Fatalf("pass %d vm %d uptime %v: Steps %v, walk %v", pass, vm.ID, up, got, want)
				}
			}
		}
	}
	if n := len(g.steps); n != maxStepTables {
		t.Fatalf("%d step tables, want the cap %d", n, maxStepTables)
	}
	if n := len(g.memo); n != maxStepMemo {
		t.Fatalf("%d memo entries, want the cap %d", n, maxStepMemo)
	}
	if declined == 0 {
		t.Fatal("Steps declined no VM past the table cap")
	}
}

// TestGBDTPredictConcurrently shares one cold predictor between goroutines
// that race to fill the same tables, slots and memo (run under -race): half
// of them predict through PredictRemaining, half bind through Steps. Every
// VM has a twin with its ID and another VM's features, as the experiments'
// pools, which all number their VMs from the same ID, have.
func TestGBDTPredictConcurrently(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 33, gbdt.Params{Trees: 10})
	for i, n := 0, len(vms); i < n; i++ {
		twin := *vms[i]
		twin.Feat = vms[(i+1)%n].Feat
		vms = append(vms, &twin)
	}
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
				predict := func(up time.Duration) time.Duration { return g.PredictRemaining(vms[i], up) }
				if w%2 == 1 {
					fn, ok := g.Steps(vms[i])
					if !ok {
						t.Errorf("worker %d vm %d: no step function below the table cap", w, vms[i].ID)
						return
					}
					predict = fn.Remaining
				}
				for j, up := range ups {
					if got := predict(up); got != want[i][j] {
						t.Errorf("worker %d vm %d uptime %v: %v, sequential walk %v", w, vms[i].ID, up, got, want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGBDTWarmPredictionDoesNotAllocate: once a VM type's table exists, no
// prediction for it allocates — repeated ones for a VM, nor the first of a
// new VM object of that type, which only refills a slot — and neither does
// binding a new VM object of seen features, a memo hit.
func TestGBDTWarmPredictionDoesNotAllocate(t *testing.T) {
	g, vms := trainedWithVMs(t, 2, 35, gbdt.Params{Trees: 10})
	vms = vms[:64]
	// New VM objects of the same types, in the same slots as vms: each pass
	// below evicts vms from their slots and is evicted in turn.
	fresh := make([]*cluster.VM, len(vms))
	for i, vm := range vms {
		fresh[i] = &cluster.VM{ID: vm.ID + numSlots, Feat: vms[len(vms)-1-i].Feat}
	}
	ups := []time.Duration{0, 90 * time.Second, 5 * time.Hour, 2 * simtime.Day}
	predictAll := func() {
		for _, set := range [][]*cluster.VM{vms, fresh} {
			for _, vm := range set {
				for _, up := range ups {
					g.PredictRemaining(vm, up)
				}
			}
		}
	}
	predictAll()
	if n := testing.AllocsPerRun(10, predictAll); n != 0 {
		t.Fatalf("warm PredictRemaining allocates %v times per %d calls", n, 2*len(vms)*len(ups))
	}
	bindAll := func() {
		for _, vm := range fresh {
			g.Steps(vm)
		}
	}
	if n := testing.AllocsPerRun(10, bindAll); n != 0 {
		t.Fatalf("Steps of seen features allocates %v times per %d calls", n, len(fresh))
	}
}

var sinkRemaining time.Duration

// BenchmarkPredictRemaining is the model layer's row: one prediction of a
// VM of the generated workload. cold runs every VM through a placement's
// worth of calls, uptime 0 then repredictions at growing uptimes, on a
// predictor that starts each pass over the VMs without tables or slots
// (what a run's first placements pay); warm repeats calls for VMs whose
// slots and tables are filled; bound makes warm's calls through each VM's
// StepCursor, as the scheduler's exit cache does once it holds the VM; bind
// is one Steps call for a new VM object of features the predictor has
// seen, what the exit cache pays to bind a VM.
func BenchmarkPredictRemaining(b *testing.B) {
	g, vms := trainedWithVMs(b, 3, 37, gbdt.Params{Trees: 100})
	// The loops step a VM index and an uptime index, as BenchmarkDistPredict
	// does, instead of dividing the iteration count.
	b.Run("cold", func(b *testing.B) {
		ups := placementUptimes()
		b.ReportAllocs()
		var p *GBDTPredictor
		for i, vm, u := 0, 0, 0; i < b.N; i++ {
			if vm == 0 && u == 0 {
				p = &GBDTPredictor{Enc: g.Enc, M: g.M}
			}
			sinkRemaining = p.PredictRemaining(vms[vm], ups[u])
			if u++; u == len(ups) {
				if u, vm = 0, vm+1; vm == len(vms) {
					vm = 0
				}
			}
		}
	})
	ups := []time.Duration{0, 90 * time.Second, 5 * time.Hour, 2 * simtime.Day}
	b.Run("warm", func(b *testing.B) {
		for _, vm := range vms {
			for _, u := range ups {
				g.PredictRemaining(vm, u)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, vm, u := 0, 0, 0; i < b.N; i++ {
			sinkRemaining = g.PredictRemaining(vms[vm], ups[u])
			if u++; u == len(ups) {
				if u, vm = 0, vm+1; vm == len(vms) {
					vm = 0
				}
			}
		}
	})
	b.Run("bound", func(b *testing.B) {
		curs := make([]StepCursor, len(vms))
		for i, vm := range vms {
			fn, ok := g.Steps(vm)
			if !ok {
				b.Fatalf("vm %d: no step function", vm.ID)
			}
			curs[i] = StepCursor{Fn: fn}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, vm, u := 0, 0, 0; i < b.N; i++ {
			sinkRemaining = curs[vm].Remaining(ups[u])
			if u++; u == len(ups) {
				if u, vm = 0, vm+1; vm == len(vms) {
					vm = 0
				}
			}
		}
	})
	b.Run("bind", func(b *testing.B) {
		fresh := make([]cluster.VM, len(vms))
		for i, vm := range vms {
			g.Steps(vm)
			fresh[i] = cluster.VM{ID: vm.ID, Feat: vm.Feat}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn, _ := g.Steps(&fresh[i%len(fresh)])
			sinkRemaining = fn.Rem[0]
		}
	})
}
