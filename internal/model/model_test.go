package model

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/dist"
	"lava/internal/features"
	"lava/internal/model/eval"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func testTrace(t testing.TB, days int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "model-test", Zone: "z1", Hosts: 24, TargetUtil: 0.6,
		Duration: time.Duration(days) * simtime.Day, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func vmFromRecord(r trace.Record) *cluster.VM {
	return &cluster.VM{ID: r.ID, Shape: r.Shape, Feat: r.Feat, TrueLifetime: r.Lifetime}
}

func TestOracle(t *testing.T) {
	vm := &cluster.VM{ID: 1, TrueLifetime: 10 * time.Hour}
	var o Oracle
	if got := o.PredictRemaining(vm, 0); got != 10*time.Hour {
		t.Fatalf("oracle at 0 = %v", got)
	}
	if got := o.PredictRemaining(vm, 4*time.Hour); got != 6*time.Hour {
		t.Fatalf("oracle at 4h = %v", got)
	}
	// Outlived: falls back to the growing floor, never zero.
	got := o.PredictRemaining(vm, 20*time.Hour)
	if got != simtime.MinRemaining(20*time.Hour) || got <= 0 {
		t.Fatalf("oracle beyond lifetime = %v", got)
	}
}

func TestNoisyOracleDeterministicPerVM(t *testing.T) {
	n := &NoisyOracle{Accuracy: 0.5, Seed: 1}
	vm := &cluster.VM{ID: 42, TrueLifetime: 24 * time.Hour}
	a := n.PredictedLifetime(vm)
	b := n.PredictedLifetime(vm)
	if a != b {
		t.Fatal("noisy oracle must be deterministic per VM")
	}
	// The kept value is the computed one: a warm oracle answers what a cold
	// one does, for every VM and uptime, and a VM ID reused with another
	// lifetime is a different VM.
	warm := &NoisyOracle{Accuracy: 0.5, Seed: 1}
	for pass := 0; pass < 2; pass++ {
		for id := int64(1); id <= 300; id++ {
			for _, life := range []time.Duration{time.Hour, 30 * time.Hour} {
				vm := &cluster.VM{ID: cluster.VMID(id), TrueLifetime: life}
				cold := &NoisyOracle{Accuracy: 0.5, Seed: 1}
				for _, up := range []time.Duration{0, 20 * time.Minute, 50 * time.Hour} {
					if got, want := warm.PredictRemaining(vm, up), cold.PredictRemaining(vm, up); got != want {
						t.Fatalf("pass %d vm %d life %v uptime %v: warm %v, cold %v", pass, id, life, up, got, want)
					}
				}
			}
		}
	}
	// Shared by concurrent simulations: every goroutine reads the cold value.
	shared := &NoisyOracle{Accuracy: 0.5, Seed: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(1); id <= 300; id++ {
				vm := &cluster.VM{ID: cluster.VMID(id), TrueLifetime: 30 * time.Hour}
				if got, want := shared.PredictedLifetime(vm), warm.PredictedLifetime(vm); got != want {
					t.Errorf("vm %d: concurrent %v, sequential %v", id, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestNoisyOracleAccuracyExtremes(t *testing.T) {
	vmAt := func(id int64) *cluster.VM {
		return &cluster.VM{ID: cluster.VMID(id), TrueLifetime: 24 * time.Hour}
	}
	perfect := &NoisyOracle{Accuracy: 1.0, Seed: 7}
	nWrong := 0
	for i := int64(0); i < 200; i++ {
		p := perfect.PredictedLifetime(vmAt(i))
		if eval.Log10Error(p, 24*time.Hour) > 0.05 {
			nWrong++
		}
	}
	if nWrong != 0 {
		t.Fatalf("accuracy=1 produced %d large errors", nWrong)
	}
	broken := &NoisyOracle{Accuracy: 0.0, Seed: 7}
	nBig := 0
	for i := int64(0); i < 200; i++ {
		p := broken.PredictedLifetime(vmAt(i))
		if eval.Log10Error(p, 24*time.Hour) > 1 {
			nBig++
		}
	}
	if nBig < 100 {
		t.Fatalf("accuracy=0 produced only %d/200 large errors", nBig)
	}
}

func TestNoisyOracleCap(t *testing.T) {
	n := &NoisyOracle{Accuracy: 0, Seed: 3}
	for i := int64(0); i < 500; i++ {
		vm := &cluster.VM{ID: cluster.VMID(i), TrueLifetime: 10 * simtime.Day}
		if p := n.PredictedLifetime(vm); p > 14*simtime.Day {
			t.Fatalf("prediction %v exceeds 14-day cap", p)
		}
	}
}

// TestNoisyOracleExtremeDrawsCap: a draw whose lifetime overflows a
// Duration is capped at 14 days, not wrapped below the 1 s floor. With a
// log10-domain sigma of 1000, every draw above ~0.31 sigma overflows.
func TestNoisyOracleExtremeDrawsCap(t *testing.T) {
	n := &NoisyOracle{Accuracy: 0, Seed: 5, SigmaWrong: 1000}
	capped := 0
	for i := int64(0); i < 200; i++ {
		p := n.PredictedLifetime(&cluster.VM{ID: cluster.VMID(i), TrueLifetime: simtime.Day})
		if p < time.Second || p > 14*simtime.Day {
			t.Fatalf("vm %d: prediction %v outside [1s, 14d]", i, p)
		}
		if p == 14*simtime.Day {
			capped++
		}
	}
	if capped < 50 {
		t.Fatalf("only %d/200 extreme draws capped at 14d", capped)
	}
}

func TestBuildExamplesAugmentation(t *testing.T) {
	recs := []trace.Record{{ID: 1, Lifetime: 8 * time.Hour}}
	exs := BuildExamples(recs)
	if len(exs) != len(UptimeFractions) {
		t.Fatalf("examples = %d, want %d", len(exs), len(UptimeFractions))
	}
	// First example: zero uptime, label = log10(8h).
	if exs[0].UptimeLog10 != ZeroUptimeLog10 {
		t.Fatalf("first uptime = %v", exs[0].UptimeLog10)
	}
	// Half-lifetime example: remaining 4h -> log10(4).
	found := false
	for _, ex := range exs {
		if ex.Log10Hours > 0.6 && ex.Log10Hours < 0.61 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing half-lifetime example: %+v", exs)
	}
}

func TestBuildExamplesCapsLabels(t *testing.T) {
	recs := []trace.Record{{ID: 1, Lifetime: 40 * simtime.Day}}
	for _, ex := range BuildExamples(recs) {
		if ex.Log10Hours > simtime.Log10Hours(simtime.CapLifetime)+1e-9 {
			t.Fatalf("label %v exceeds 168h cap", ex.Log10Hours)
		}
	}
}

func TestSplitRecords(t *testing.T) {
	tr := testTrace(t, 2, 5)
	train, test := SplitRecords(tr.Records, 0.25, 9)
	if len(train)+len(test) != len(tr.Records) {
		t.Fatal("split lost records")
	}
	frac := float64(len(test)) / float64(len(tr.Records))
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("test fraction = %v, want ~0.25", frac)
	}
	// Determinism.
	tr2, te2 := SplitRecords(tr.Records, 0.25, 9)
	if len(tr2) != len(train) || len(te2) != len(test) {
		t.Fatal("split not deterministic")
	}
	// Out-of-range fractions clamp instead of slicing out of bounds.
	for _, c := range []struct {
		frac float64
		test int
	}{{-1, 0}, {math.NaN(), 0}, {1.5, len(tr.Records)}} {
		if train, test := SplitRecords(tr.Records, c.frac, 9); len(test) != c.test || len(train)+len(test) != len(tr.Records) {
			t.Fatalf("frac %v: %d train / %d test, want %d test", c.frac, len(train), len(test), c.test)
		}
	}
}

func TestDistTableBimodalReprediction(t *testing.T) {
	// Build records with a bimodal category: half 1d, half 7d lifetimes.
	var recs []trace.Record
	for i := 0; i < 200; i++ {
		lt := 24 * time.Hour
		if i%2 == 0 {
			lt = 7 * 24 * time.Hour
		}
		recs = append(recs, trace.Record{
			ID: cluster.VMID(i), Lifetime: lt,
			Feat: vmFromRecord(trace.Record{}).Feat,
		})
	}
	dt, err := TrainDistTable(recs)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmFromRecord(recs[0])
	// At uptime 0: mean of mixture = 4 days.
	at0 := dt.PredictRemaining(vm, 0)
	if at0 < 3*simtime.Day || at0 > 5*simtime.Day {
		t.Fatalf("PredictRemaining(0) = %v, want ~4d", at0)
	}
	// After 2 days: only the 7d mode remains -> ~5 days left. This is the
	// reprediction advantage of Fig. 2.
	at2 := dt.PredictRemaining(vm, 2*simtime.Day)
	if at2 < 4*simtime.Day || at2 > 6*simtime.Day {
		t.Fatalf("PredictRemaining(2d) = %v, want ~5d", at2)
	}
}

// distWithVMs trains the dist table on a generated trace and returns its
// records as VMs, plus one of a group the table never saw.
func distWithVMs(t testing.TB) (*DistTable, []*cluster.VM) {
	t.Helper()
	tr := testTrace(t, 3, 37)
	dt, err := TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*cluster.VM
	for _, r := range tr.Records {
		vms = append(vms, vmFromRecord(r))
	}
	unseen := vmFromRecord(tr.Records[0])
	unseen.Feat.VMCategory = "never-seen"
	return dt, append(vms, unseen)
}

// TestDistTablePredictDoesNotAllocate: LAVA asks ~24 times per placement, and
// the table lookup used to build a string key each time.
func TestDistTablePredictDoesNotAllocate(t *testing.T) {
	dt, vms := distWithVMs(t)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		sinkRemaining = dt.PredictRemaining(vms[i%len(vms)], time.Duration(i)*time.Minute)
		i++
	}); n != 0 {
		t.Fatalf("DistTable.PredictRemaining allocates %v times per call, want 0", n)
	}
}

// BenchmarkDistPredict is the dist table's row of the model layer: a
// placement's worth of calls per VM of the generated workload (see
// placementUptimes), unbound through PredictRemaining, and bound through
// each VM's StepCursor, as the scheduler's exit cache makes them once it
// holds the VM.
func BenchmarkDistPredict(b *testing.B) {
	dt, vms := distWithVMs(b)
	ups := placementUptimes()
	// The loops step a VM index and an uptime index instead of dividing
	// the iteration count: a bound call costs a few divisions.
	b.Run("unbound", func(b *testing.B) {
		b.ReportAllocs()
		for i, vm, u := 0, 0, 0; i < b.N; i++ {
			sinkRemaining = dt.PredictRemaining(vms[vm], ups[u])
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
			curs[i] = StepCursor{Fn: must(dt.Steps(vm))}
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
}

// placementUptimes is about as many calls per VM as LAVA makes per
// placement: uptime 0 for the placement, then 19 repredictions at growing
// uptimes for host rescoring.
func placementUptimes() []time.Duration {
	ups := []time.Duration{0}
	for up := time.Minute; len(ups) < 20; up = up * 3 / 2 {
		ups = append(ups, up)
	}
	return ups
}

// TestDistStepsMatchPredictRemaining: every VM of a generated workload,
// those of an unseen group too, binds a ramp whose answers, read directly
// and through a cursor, are PredictRemaining's at every sample of the
// VM's group ±1 ns, past the last one, at negative uptimes and at a
// placement's uptimes; and a bound reprediction allocates nothing.
func TestDistStepsMatchPredictRemaining(t *testing.T) {
	dt, vms := distWithVMs(t)
	for _, vm := range vms {
		fn, ok := dt.Steps(vm)
		if !ok || len(fn.At) != len(fn.Rem) || len(fn.At) == 0 {
			t.Fatalf("vm %d: ramp %v with %d steps for %d samples", vm.ID, ok, len(fn.Rem), len(fn.At))
		}
		ups := append(placementUptimes(), -1, -time.Hour, math.MinInt64, math.MaxInt64, fn.At[len(fn.At)-1]+time.Hour)
		for _, a := range fn.At {
			ups = append(ups, a-1, a, a+1)
		}
		checkSteps(t, dt, vm, fn, ups)
	}
	cur := StepCursor{Fn: must(dt.Steps(vms[0]))}
	ups := placementUptimes()
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		sinkRemaining = cur.Remaining(ups[i%len(ups)])
		i++
	}); n != 0 {
		t.Fatalf("a bound reprediction allocates %v times, want 0", n)
	}
}

func must(fn StepFn, ok bool) StepFn {
	if !ok {
		panic("no step function")
	}
	return fn
}

// checkSteps requires fn, read directly and through a cursor that meets the
// uptimes in the given order, to answer as the predictor does.
func checkSteps(t *testing.T, p Predictor, vm *cluster.VM, fn StepFn, ups []time.Duration) {
	t.Helper()
	cur := StepCursor{Fn: fn}
	for _, up := range ups {
		want := p.PredictRemaining(vm, up)
		if got := fn.Remaining(up); got != want {
			t.Fatalf("vm %d uptime %d: Steps %d, PredictRemaining %d", vm.ID, up, got, want)
		}
		if got := cur.Remaining(up); got != want {
			t.Fatalf("vm %d uptime %d: cursor %d, PredictRemaining %d", vm.ID, up, got, want)
		}
	}
}

// FuzzDistSteps: the dist table's bound answers equal PredictRemaining bit
// for bit. The samples are decoded three bytes each — a kind and a 16-bit
// value — as zeros, nanoseconds, minutes, days, values just below
// math.MaxInt64 (whose means saturate), repeats of the previous sample and
// negative values (which Steps must decline). The cursor meets the
// uptimes in three passes: every sample -1, +0 and +1 ns and past the last
// one, rising; then falling; then at uptimes decoded from ups, 8 bytes
// each, which jump anywhere, negative ones included.
func FuzzDistSteps(f *testing.F) {
	f.Add([]byte{1, 5, 0, 2, 3, 0, 4, 0, 0, 3, 2, 0}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{5, 0, 0, 5, 1, 0, 5, 2, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{2, 10, 0, 6, 4, 0}, []byte{})
	f.Fuzz(func(t *testing.T, data, raw []byte) {
		var samples []time.Duration
		negative := false
		for i := 0; i+2 < len(data) && len(samples) < 512; i += 3 {
			v := time.Duration(uint16(data[i+1]) | uint16(data[i+2])<<8)
			var s time.Duration
			switch data[i] % 7 {
			case 0:
				s = 0
			case 1:
				s = v
			case 2:
				s = v * time.Minute
			case 3:
				s = v * simtime.Day
			case 4:
				s = math.MaxInt64 - v
			case 5:
				if len(samples) > 0 {
					s = samples[len(samples)-1]
				}
			case 6:
				s, negative = -v-1, true
			}
			samples = append(samples, s)
		}
		if len(samples) == 0 {
			return
		}
		e, err := dist.FromDurations(samples)
		if err != nil {
			t.Fatal(err)
		}
		dt := &DistTable{global: e}
		vm := &cluster.VM{ID: 1}
		fn, ok := dt.Steps(vm)
		if ok == negative {
			t.Fatalf("samples %v: Steps says %v", samples, ok)
		}
		if !ok {
			return
		}
		if len(fn.At) != len(fn.Rem) || !slices.IsSorted(fn.At) {
			t.Fatalf("samples %v: ramp of %d thresholds and %d steps", samples, len(fn.At), len(fn.Rem))
		}
		var ups []time.Duration
		for _, a := range fn.At {
			ups = append(ups, a-1, a, a+1)
		}
		ups = append(ups, fn.At[len(fn.At)-1]+time.Hour, math.MaxInt64)
		falling := slices.Clone(ups)
		slices.Reverse(falling)
		ups = append(ups, falling...)
		for i := 0; i+7 < len(raw); i += 8 {
			ups = append(ups, time.Duration(binary.LittleEndian.Uint64(raw[i:])))
		}
		ups = append(ups, math.MinInt64, -1, 0)
		checkSteps(t, dt, vm, fn, ups)
	})
}

func TestGBDTPredictorLearnsWorkload(t *testing.T) {
	tr := testTrace(t, 6, 11)
	train, test := SplitRecords(tr.Records, 0.3, 1)
	g, err := TrainGBDT(train, gbdt.Params{Trees: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Separation: long-lived categories must be predicted far longer than
	// short ones at uptime 0.
	var predicted, actual []time.Duration
	for _, r := range test {
		vm := vmFromRecord(r)
		predicted = append(predicted, g.PredictRemaining(vm, 0))
		lt := r.Lifetime
		if lt > simtime.CapLifetime {
			lt = simtime.CapLifetime
		}
		actual = append(actual, lt)
	}
	if len(actual) > 2000 {
		predicted, actual = predicted[:2000], actual[:2000]
	}
	c, err := eval.CIndex(predicted, actual)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.75 {
		t.Fatalf("GBDT C-index = %v, want >= 0.75", c)
	}
}

// TestKMAndCoxPredictorsTrain: the KM baseline trains by name on a split of
// a generated trace and predicts a positive remaining lifetime, within the
// support and past it.
func TestKMAndCoxPredictorsTrain(t *testing.T) {
	tr := testTrace(t, 3, 13)
	train, test := SplitRecords(tr.Records, 0.2, 2)

	kmPred, err := Train("km", train, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kmPred.(*DistTable).tables) == 0 {
		t.Fatal("KM learned no strata")
	}
	vm := vmFromRecord(test[0])
	if kmPred.PredictRemaining(vm, 0) <= 0 {
		t.Fatal("KM prediction must be positive")
	}
	if kmPred.PredictRemaining(vm, 200*simtime.Day) <= 0 {
		t.Fatal("KM prediction beyond support must be positive")
	}
}

// TestKMIsTheDistTable: Table 4's stratified Kaplan-Meier baseline is the
// distribution table under its own name. Trace records carry no censoring,
// so a stratum's KM curve is its empirical survival function, and the two
// kinds answer alike on every record at every uptime, past the support
// too.
func TestKMIsTheDistTable(t *testing.T) {
	recs := withRareStratum(testTrace(t, 3, 13).Records)
	km, err := Train("km", recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := Train("dist", recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if km.Name() != "stratified-km" || dt.Name() != "dist-table" {
		t.Fatalf("names %q, %q; want stratified-km, dist-table", km.Name(), dt.Name())
	}
	uptimes := []time.Duration{0, time.Minute, time.Hour, 5 * time.Hour, 2 * simtime.Day, 9 * simtime.Day, 200 * simtime.Day}
	for _, r := range recs {
		vm := vmFromRecord(r)
		for _, u := range uptimes {
			if k, d := km.PredictRemaining(vm, u), dt.PredictRemaining(vm, u); k != d || k <= 0 {
				t.Fatalf("record %d at uptime %v: km %v, dist %v", r.ID, u, k, d)
			}
		}
	}
}

// TestKMStratified: a short-lived and a long-lived stratum each get their own
// curve, and an unseen stratum answers from the global one, which lies
// between them.
func TestKMStratified(t *testing.T) {
	short := []float64{0.3, 0.4, 0.5, 0.6, 0.5, 0.4, 0.3, 0.5, 0.6, 0.4, 0.5, 0.3}
	long := []float64{90, 100, 110, 120, 100, 95, 105, 115, 100, 110, 90, 105}
	var recs []trace.Record
	add := func(category string, hours []float64) {
		for _, h := range hours {
			recs = append(recs, trace.Record{
				ID:       cluster.VMID(len(recs) + 1),
				Feat:     features.Features{VMCategory: category},
				Lifetime: time.Duration(h * float64(time.Hour)),
			})
		}
	}
	add("short", short)
	add("long", long)
	km, err := Train("km", recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(km.(*DistTable).tables); n != 2 {
		t.Fatalf("strata = %d, want 2", n)
	}
	predict := func(category string) time.Duration {
		return km.PredictRemaining(&cluster.VM{Feat: features.Features{VMCategory: category}}, 0)
	}
	se, le := predict("short"), predict("long")
	if se >= time.Hour || le <= 24*time.Hour {
		t.Fatalf("stratified expectations wrong: short=%v long=%v", se, le)
	}
	if ge := predict("unknown"); ge <= se || ge >= le {
		t.Fatalf("global fallback %v not between strata (%v, %v)", ge, se, le)
	}
}

// TestKMSmallStratumFallsBack: a stratum below features.MinCategoryCount
// gets no curve of its own and answers from the global distribution.
func TestKMSmallStratumFallsBack(t *testing.T) {
	base := testTrace(t, 3, 13).Records
	baseKM, err := Train("km", base, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := withRareStratum(base)
	km, err := Train("km", recs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(km.(*DistTable).tables), len(baseKM.(*DistTable).tables); got != want {
		t.Fatalf("strata = %d, want %d (rare stratum collapsed)", got, want)
	}
	all := make([]time.Duration, len(recs))
	for i, r := range recs {
		all[i] = r.Lifetime
	}
	global, err := dist.FromDurations(all)
	if err != nil {
		t.Fatal(err)
	}
	vm := &cluster.VM{Feat: recs[len(recs)-1].Feat}
	for _, u := range []time.Duration{0, time.Minute, time.Hour} {
		if got, want := km.PredictRemaining(vm, u), global.CondExpRemaining(u); got != want {
			t.Fatalf("rare stratum at uptime %v: %v, want the global %v", u, got, want)
		}
	}
}

// withRareStratum appends features.MinCategoryCount-1 records of a category
// no other record has, one short of a stratum of its own.
func withRareStratum(recs []trace.Record) []trace.Record {
	recs = append([]trace.Record(nil), recs...)
	rare := recs[0].Feat
	rare.VMCategory = "rare-stratum"
	for i := 1; i < features.MinCategoryCount; i++ {
		recs = append(recs, trace.Record{ID: recs[len(recs)-1].ID + 1, Feat: rare, Lifetime: time.Duration(i) * time.Hour})
	}
	return recs
}

func TestPredictorNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Predictor{Oracle{}, &NoisyOracle{}} {
		if p.Name() == "" {
			t.Fatal("empty predictor name")
		}
		names[p.Name()] = true
	}
	if len(names) != 2 {
		t.Fatalf("names not distinct: %v", names)
	}
}

func TestGBDTBundleRoundTrip(t *testing.T) {
	tr := testTrace(t, 2, 21)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGBDT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && i < len(tr.Records); i++ {
		vm := vmFromRecord(tr.Records[i])
		for _, up := range []time.Duration{0, time.Hour, 10 * time.Hour} {
			if got.PredictRemaining(vm, up) != g.PredictRemaining(vm, up) {
				t.Fatalf("prediction mismatch after round trip (vm %d, uptime %v)", vm.ID, up)
			}
		}
	}
	if _, err := LoadGBDT(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("garbage bundle must fail to load")
	}
	if _, err := LoadGBDT(bytes.NewBufferString("{}")); err == nil {
		t.Fatal("empty bundle must fail to load")
	}
	// A bundle's model goes through gbdt's validation: a root that is its
	// own child would spin PredictRemaining forever.
	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		t.Fatal(err)
	}
	looped := bytes.Replace(saved.Bytes(), []byte(`"l":1,"r":2`), []byte(`"l":0,"r":0`), 1)
	if bytes.Equal(looped, saved.Bytes()) {
		t.Fatal("saved bundle has no root split to corrupt")
	}
	if _, err := LoadGBDT(bytes.NewReader(looped)); err == nil {
		t.Fatal("bundle with a self-looping tree must fail to load")
	}
}
