package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func testTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "scen-test", Zone: "z1", Hosts: 32, TargetUtil: 0.6,
		Duration: 4 * simtime.Day, Prefill: 8 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// --- Surge ----------------------------------------------------------------

func TestSurgeDeterministicAndShaped(t *testing.T) {
	base := testTrace(t, 1)
	w := measured(base)
	for _, law := range []BurstLaw{LawSquare, LawSpike, LawRamp} {
		t.Run(law.String(), func(t *testing.T) {
			spec := Spec{Name: "s", Seed: 7, Events: []Event{
				Surge{At: w.at(0.3), For: w.frac(0.2), Factor: 2, Law: law},
			}}
			a, err := spec.ComposeTrace(base)
			if err != nil {
				t.Fatal(err)
			}
			b, err := spec.ComposeTrace(base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Records, b.Records) {
				t.Fatal("same seed composed different traces")
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("composed trace invalid: %v", err)
			}
			extra := len(a.Records) - len(base.Records)
			if extra <= 0 {
				t.Fatalf("surge added %d records", extra)
			}
			// Extra records (IDs above the base max) stay inside the window
			// and clone existing lifetimes/shapes.
			var maxBase cluster.VMID
			for _, r := range base.Records {
				if r.ID > maxBase {
					maxBase = r.ID
				}
			}
			at, until := w.at(0.3), w.at(0.3)+w.frac(0.2)
			for _, r := range a.Records {
				if r.ID <= maxBase {
					continue
				}
				if r.Arrival < at || r.Arrival >= until {
					t.Fatalf("extra vm %d arrives at %v outside [%v,%v)", r.ID, r.Arrival, at, until)
				}
			}
			// Roughly (Factor-1) x the base window population.
			var inWindow int
			for _, r := range base.Records {
				if r.Arrival >= at && r.Arrival < until {
					inWindow++
				}
			}
			if extra != inWindow {
				t.Fatalf("extra = %d, want %d (factor 2)", extra, inWindow)
			}
		})
	}
}

func TestSurgeDoesNotMutateBase(t *testing.T) {
	base := testTrace(t, 2)
	before := make([]trace.Record, len(base.Records))
	copy(before, base.Records)
	w := measured(base)
	spec := Spec{Name: "s", Seed: 3, Events: []Event{
		Surge{At: w.at(0.2), For: w.frac(0.3), Factor: 3, Law: LawSpike},
	}}
	if _, err := spec.ComposeTrace(base); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, base.Records) {
		t.Fatal("ComposeTrace mutated the shared base trace")
	}
}

func TestBurstLawShapes(t *testing.T) {
	const window = 100 * time.Hour
	mean := func(law BurstLaw) time.Duration {
		rng := rand.New(rand.NewSource(1))
		var sum time.Duration
		const n = 4000
		for i := 0; i < n; i++ {
			off := law.offset(rng, window)
			if off < 0 || off >= window {
				t.Fatalf("%s: offset %v outside window", law, off)
			}
			sum += off
		}
		return sum / n
	}
	spike, square, ramp := mean(LawSpike), mean(LawSquare), mean(LawRamp)
	// Spike front-loads, ramp back-loads, square sits in the middle.
	if !(spike < square && square < ramp) {
		t.Fatalf("law means out of order: spike=%v square=%v ramp=%v", spike, square, ramp)
	}
}

// --- Tick injectors: deterministic event streams --------------------------

// poolEventStream drives one injector over a synthetic occupied pool and
// records every observable transition (availability flips, forced exits)
// as a canonical string stream.
func poolEventStream(t *testing.T, ev TickEvent, seed int64) []string {
	t.Helper()
	const hosts = 40
	pool := cluster.NewPool("stream", hosts, workload.DefaultHostShape)
	// Two VMs per even host so failures have something to kill.
	id := cluster.VMID(0)
	for i := 0; i < hosts; i += 2 {
		for j := 0; j < 2; j++ {
			vm := &cluster.VM{ID: id, Shape: workload.DefaultHostShape.Scale(0.25), TrueLifetime: 100 * time.Hour}
			if err := pool.Place(vm, pool.Host(cluster.HostID(i))); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	res := &sim.Result{}
	ctl := sim.NewControl(pool, scheduler.NewWasteMin(), res)
	inj := ev.NewInjector(seed)

	avail := make([]bool, hosts)
	running := map[cluster.VMID]bool{}
	for _, vm := range pool.RunningVMs() {
		running[vm.ID] = true
	}

	var stream []string
	for tick := 0; tick <= 200; tick++ {
		now := time.Duration(tick) * time.Hour
		inj.Inject(ctl, now)
		for i := 0; i < hosts; i++ {
			if un := pool.Host(cluster.HostID(i)).Unavailable(); un != avail[i] {
				avail[i] = un
				stream = append(stream, fmt.Sprintf("t=%v host=%d unavailable=%t", now, i, un))
			}
		}
		for _, id := range runningIDs(running) {
			if pool.HostOf(id) == nil {
				delete(running, id)
				stream = append(stream, fmt.Sprintf("t=%v killed=%d", now, id))
			}
		}
	}
	return stream
}

func runningIDs(m map[cluster.VMID]bool) []cluster.VMID {
	out := make([]cluster.VMID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	// Sorted for deterministic iteration.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestTickInjectorStreamsDeterministic(t *testing.T) {
	cases := []struct {
		name string
		ev   TickEvent
		want func(t *testing.T, stream []string)
	}{
		{
			name: "drain-wave",
			ev:   DrainWave{At: 10 * time.Hour, Every: 20 * time.Hour, Waves: 3, Frac: 0.1, For: 15 * time.Hour},
			want: func(t *testing.T, stream []string) {
				// 3 waves x 4 hosts, drained and restored: 24 transitions.
				if len(stream) != 24 {
					t.Fatalf("stream has %d events, want 24:\n%s", len(stream), strings.Join(stream, "\n"))
				}
			},
		},
		{
			name: "failures",
			ev:   Failures{At: 30 * time.Hour, Frac: 0.2, RepairFor: 50 * time.Hour},
			want: func(t *testing.T, stream []string) {
				var kills, downs, ups int
				for _, e := range stream {
					switch {
					case strings.Contains(e, "killed"):
						kills++
					case strings.Contains(e, "unavailable=true"):
						downs++
					case strings.Contains(e, "unavailable=false"):
						ups++
					}
				}
				if downs != 8 || ups != 8 {
					t.Fatalf("failed/repaired %d/%d hosts, want 8/8:\n%s", downs, ups, strings.Join(stream, "\n"))
				}
				if kills == 0 {
					t.Fatal("correlated failure killed no VMs")
				}
			},
		},
		{
			name: "crunch",
			ev:   Crunch{At: 40 * time.Hour, Frac: 0.25, For: 60 * time.Hour},
			want: func(t *testing.T, stream []string) {
				// 10 hosts withdrawn then restored, no kills.
				if len(stream) != 20 {
					t.Fatalf("stream has %d events, want 20:\n%s", len(stream), strings.Join(stream, "\n"))
				}
				for _, e := range stream {
					if strings.Contains(e, "killed") {
						t.Fatalf("crunch killed a VM: %s", e)
					}
					// The crunch withdraws the highest-ID quarter (30..39).
					var host int
					if _, err := fmt.Sscanf(e[strings.Index(e, "host="):], "host=%d", &host); err != nil || host < 30 {
						t.Fatalf("crunch touched low host: %s", e)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := poolEventStream(t, tc.ev, 11)
			b := poolEventStream(t, tc.ev, 11)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed produced different event streams:\n--- a ---\n%s\n--- b ---\n%s",
					strings.Join(a, "\n"), strings.Join(b, "\n"))
			}
			if err := tc.ev.Validate(); err != nil {
				t.Fatalf("valid event rejected: %v", err)
			}
			tc.want(t, a)
		})
	}
}

// TestDrainWaveOverlapHoldsHosts covers overlapping campaigns (Frac*Waves
// > 1): a host claimed by two waves must stay drained until the LAST
// overlapping wave ends, not reappear when the first one does.
func TestDrainWaveOverlapHoldsHosts(t *testing.T) {
	const hosts = 10
	pool := cluster.NewPool("overlap", hosts, workload.DefaultHostShape)
	ctl := sim.NewControl(pool, scheduler.NewWasteMin(), nil)
	// Wave 0 at 1h holds hosts 0-6; wave 1 at 2h holds 7,8,9,0,1,2,3.
	// Wave 0 ends at 4h, wave 1 at 5h.
	ev := DrainWave{At: time.Hour, Every: time.Hour, Waves: 2, Frac: 0.7, For: 3 * time.Hour}
	inj := ev.NewInjector(0)
	unavailable := func() (ids []int) {
		for i := 0; i < hosts; i++ {
			if pool.Host(cluster.HostID(i)).Unavailable() {
				ids = append(ids, i)
			}
		}
		return
	}
	inj.Inject(ctl, time.Hour)
	if got := unavailable(); len(got) != 7 {
		t.Fatalf("after wave 0: unavailable = %v", got)
	}
	inj.Inject(ctl, 2*time.Hour)
	if got := unavailable(); len(got) != 10 {
		t.Fatalf("after wave 1: unavailable = %v", got)
	}
	// Wave 0 released; hosts 0-3 are still held by wave 1, so only 4-6
	// return to service.
	inj.Inject(ctl, 4*time.Hour)
	got := unavailable()
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 7, 8, 9}) {
		t.Fatalf("after wave 0 release: unavailable = %v, want [0 1 2 3 7 8 9]", got)
	}
	inj.Inject(ctl, 5*time.Hour)
	if got := unavailable(); len(got) != 0 {
		t.Fatalf("after wave 1 release: unavailable = %v, want none", got)
	}
}

// TestDrainWaveBoundaryOrder pins the record order where one wave ends as
// the next starts (For == Every) and the two share hosts by wrapping: wave 0
// holds hosts 0-6, wave 1 hosts 7,8,9,0,1,2,3. At the boundary wave 0
// restores before wave 1 withdraws, so the shared hosts 0-3 flip twice in
// that tick: back into service, then out again. The other order would
// leave them claimed throughout and record no flip for them.
func TestDrainWaveBoundaryOrder(t *testing.T) {
	rec := ptrace.New(ptrace.Options{})
	_, err := sim.Run(sim.Config{
		Policy:    scheduler.NewWasteMin(),
		Trace:     &trace.Trace{PoolName: "boundary", Hosts: 10, HostCPU: 32000, HostMem: 131072, Horizon: 6 * time.Hour},
		Injectors: []sim.Injector{DrainWave{At: time.Hour, Every: 2 * time.Hour, Waves: 2, Frac: 0.7, For: 2 * time.Hour}.NewInjector(0)},
		Tracer:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range rec.Decisions() {
		if d.Kind == ptrace.KindWithdraw || d.Kind == ptrace.KindRestore {
			got = append(got, fmt.Sprintf("%v %s %d", d.T, d.Kind, d.Host))
		}
	}
	var want []string
	flips := func(at time.Duration, kind ptrace.Kind, hosts ...int) {
		for _, h := range hosts {
			want = append(want, fmt.Sprintf("%v %s %d", at, kind, h))
		}
	}
	flips(time.Hour, ptrace.KindWithdraw, 0, 1, 2, 3, 4, 5, 6)
	flips(3*time.Hour, ptrace.KindRestore, 0, 1, 2, 3, 4, 5, 6)
	flips(3*time.Hour, ptrace.KindWithdraw, 7, 8, 9, 0, 1, 2, 3)
	flips(5*time.Hour, ptrace.KindRestore, 7, 8, 9, 0, 1, 2, 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("withdraw/restore records:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// defragUnderDrain builds the shared-claims geometry: ten hosts, one
// long-lived VM on hosts 0 and 5 (the only hosts a defragmenter triggered
// at 1h drains), and a drain wave that withdraws hosts 0-5 at 1h for hold.
// At 1h the engine reserves targets among hosts 1-4 before the wave takes
// them out of service.
func defragUnderDrain(t *testing.T, hold time.Duration) (*cluster.Pool, *sim.Control, *defrag.Engine, sim.Injector) {
	t.Helper()
	pool := cluster.NewPool("shared", 10, workload.DefaultHostShape)
	for _, h := range []cluster.HostID{0, 5} {
		vm := &cluster.VM{ID: cluster.VMID(h + 1), Shape: resources.Cores(4, 16384, 0), TrueLifetime: 1000 * time.Hour}
		if err := pool.Place(vm, pool.Host(h)); err != nil {
			t.Fatal(err)
		}
	}
	ctl := sim.NewControl(pool, scheduler.NewBestFit(), nil)
	eng := defrag.New(defrag.Config{
		Pred:      model.Oracle{},
		Threshold: 0.99, HostsPerRound: 2, CheckEvery: 1000 * time.Hour,
	})
	drain := DrainWave{At: time.Hour, Every: time.Hour, Waves: 1, Frac: 0.6, For: hold}.NewInjector(0)
	return pool, ctl, eng, drain
}

// TestDrainWaveAndDefragShareClaims runs a defragmenter and a drain wave on
// one Control over overlapping hosts: a host both withdrew returns to
// service only once both released it, whichever releases first.
func TestDrainWaveAndDefragShareClaims(t *testing.T) {
	const hosts = 10
	defragHeld := map[cluster.HostID]bool{0: true, 5: true}
	released := time.Hour + 20*time.Minute // the defragmenter's copy window ends
	// A wave that outlasts the first copies has withdrawn their targets:
	// both moves are started again elsewhere, and each still counts once.
	for _, hold := range []time.Duration{10 * time.Minute, 3 * time.Hour} {
		t.Run(fmt.Sprintf("drain-for-%v", hold), func(t *testing.T) {
			pool, ctl, eng, drain := defragUnderDrain(t, hold)
			for _, now := range []time.Duration{time.Hour, time.Hour + 10*time.Minute, released, 2 * time.Hour, 4 * time.Hour, 5 * time.Hour} {
				eng.Inject(ctl, now)
				drain.Inject(ctl, now)
				for i := 0; i < hosts; i++ {
					id := cluster.HostID(i)
					byDefrag := defragHeld[id] && now < released
					byDrain := i <= 5 && now < time.Hour+hold
					if got := pool.Host(id).Unavailable(); got != (byDefrag || byDrain) {
						t.Fatalf("host %d at %v: unavailable=%v, want %v (defrag holds %v, drain holds %v)",
							id, now, got, byDefrag || byDrain, byDefrag, byDrain)
					}
				}
			}
			if st := eng.Stats; st.HostsFreed != 2 || st.Planned != 2 || st.Performed != 2 || st.Saved+st.Abandoned != 0 {
				t.Fatalf("defrag stats %+v, want both hosts drained and freed in 2 moves", st)
			}
		})
	}
}

// TestDefragSkipsWithdrawnTarget: a drain wave withdraws hosts 0-5 from 1h
// to 4h, after the defragmenter reserved targets among them for the VMs of
// hosts 0 and 5. No VM may land on a withdrawn host; the moves go to hosts
// in service instead.
func TestDefragSkipsWithdrawnTarget(t *testing.T) {
	pool, ctl, eng, drain := defragUnderDrain(t, 3*time.Hour)
	vms := []cluster.VMID{1, 6}
	at := map[cluster.VMID]*cluster.Host{1: pool.Host(0), 6: pool.Host(5)}
	for now := time.Hour; now <= 5*time.Hour; now += 10 * time.Minute {
		eng.Inject(ctl, now)
		drain.Inject(ctl, now)
		for _, id := range vms {
			h := pool.HostOf(id)
			if h != at[id] && h.Unavailable() {
				t.Fatalf("at %v vm %d moved from host %d onto withdrawn host %d", now, id, at[id].ID, h.ID)
			}
			at[id] = h
		}
	}
	for _, id := range vms {
		if h := at[id]; h.ID <= 5 {
			t.Fatalf("vm %d ended on host %d, inside the drained range", id, h.ID)
		}
	}
	if eng.Stats.HostsFreed != 2 {
		t.Fatalf("defrag stats %+v, want both hosts freed", eng.Stats)
	}
	if err := pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossInjectorClaimsCoordinate mixes a long crunch with a drain wave
// over overlapping hosts in one spec: the crunch's restore must not release
// hosts a still-active drain wave claims, and vice versa.
func TestCrossInjectorClaimsCoordinate(t *testing.T) {
	const hosts = 10
	pool := cluster.NewPool("mixed", hosts, workload.DefaultHostShape)
	ctl := sim.NewControl(pool, scheduler.NewWasteMin(), nil)
	spec := Spec{Name: "mixed", Seed: 1, Events: []Event{
		// Crunch withdraws the top half (hosts 5-9) from 1h to 3h.
		Crunch{At: time.Hour, Frac: 0.5, For: 2 * time.Hour},
		// One drain wave claims hosts 0-5 from 2h to 6h; host 5 overlaps.
		DrainWave{At: 2 * time.Hour, Every: time.Hour, Waves: 1, Frac: 0.6, For: 4 * time.Hour},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	injs := spec.Injectors(0)
	step := func(now time.Duration) {
		for _, in := range injs {
			in.Inject(ctl, now)
		}
	}
	step(time.Hour)     // crunch: 5-9 down
	step(2 * time.Hour) // drain wave: 0-5 down too; host 5 double-claimed
	for i := 0; i < hosts; i++ {
		if !pool.Host(cluster.HostID(i)).Unavailable() {
			t.Fatalf("at 2h host %d should be withdrawn", i)
		}
	}
	// Crunch restores at 3h: hosts 6-9 return, but host 5 is still claimed
	// by the active drain wave.
	step(3 * time.Hour)
	if !pool.Host(5).Unavailable() {
		t.Fatal("crunch restore released host 5 while the drain wave still claims it")
	}
	for i := 6; i < hosts; i++ {
		if pool.Host(cluster.HostID(i)).Unavailable() {
			t.Fatalf("host %d not restored after crunch ended", i)
		}
	}
	// Drain wave ends at 6h: everything back.
	step(6 * time.Hour)
	for i := 0; i < hosts; i++ {
		if pool.Host(cluster.HostID(i)).Unavailable() {
			t.Fatalf("host %d not restored after all events ended", i)
		}
	}
}

// TestInjectorsAfterHostRemoval: the scenario injectors pick hosts by
// their position in the pool, so after a host removal they withdraw hosts
// the pool still has, and a host under a withdrawal claim refuses removal,
// so the claim's restore finds it. Before, each case dereferenced a nil
// host: a crunch restored a host removed under its claim, and a drain
// wave, a failure and a crunch withdrew the removed host's ID.
func TestInjectorsAfterHostRemoval(t *testing.T) {
	newMachine := func(t *testing.T, ev TickEvent) *sim.Machine {
		t.Helper()
		m, err := sim.NewMachine(sim.Config{
			Policy:    scheduler.NewWasteMin(),
			Trace:     &trace.Trace{PoolName: "removal", Hosts: 4, HostCPU: 32000, HostMem: 131072, Horizon: 4 * time.Hour},
			Injectors: []sim.Injector{ev.NewInjector(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	unavailable := func(p *cluster.Pool) (ids []cluster.HostID) {
		for _, h := range p.Hosts() {
			if h.Unavailable() {
				ids = append(ids, h.ID)
			}
		}
		return ids
	}
	t.Run("crunch keeps the host it withdrew", func(t *testing.T) {
		m := newMachine(t, Crunch{At: time.Hour, Frac: 0.25, For: time.Hour})
		if err := m.Advance(time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveHost(3, time.Hour); err == nil {
			t.Fatal("host 3 was removed under the crunch's claim")
		}
		if err := m.Advance(3 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if got := unavailable(m.Pool()); m.Pool().NumHosts() != 4 || len(got) != 0 {
			t.Fatalf("after the restore: %d hosts, unavailable %v; want 4, none", m.Pool().NumHosts(), got)
		}
	})
	for _, c := range []struct {
		ev   TickEvent
		want []cluster.HostID // withdrawn at 90 minutes
	}{
		{DrainWave{At: time.Hour, Every: time.Hour, Waves: 2, Frac: 0.5, For: time.Hour}, []cluster.HostID{0, 2}},
		{Failures{At: time.Hour, Frac: 1, RepairFor: time.Hour}, []cluster.HostID{0, 2, 3}},
		{Crunch{At: time.Hour, Frac: 1, For: time.Hour}, []cluster.HostID{0, 2, 3}},
	} {
		t.Run(c.ev.Kind()+" after a removal", func(t *testing.T) {
			m := newMachine(t, c.ev)
			if err := m.RemoveHost(1, 0); err != nil {
				t.Fatal(err)
			}
			if err := m.Advance(90 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if got := unavailable(m.Pool()); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("withdrawn at 90 minutes: %v, want %v", got, c.want)
			}
			if _, err := m.Finish(); err != nil {
				t.Fatal(err)
			}
			if got := unavailable(m.Pool()); len(got) != 0 {
				t.Fatalf("withdrawn at the end: %v, want none", got)
			}
		})
	}
}

func TestFailuresSeedMovesBlock(t *testing.T) {
	ev := Failures{At: 30 * time.Hour, Frac: 0.2, RepairFor: 0}
	a := poolEventStream(t, ev, 1)
	b := poolEventStream(t, ev, 2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds failed the identical host block (suspicious)")
	}
}

// --- ModelSwap ------------------------------------------------------------

func TestModelSwapSwitchesAtTime(t *testing.T) {
	swapAt := 50 * time.Hour
	spec := Spec{Name: "swap", Seed: 9, Events: []Event{ModelSwap{At: swapAt, Accuracy: 0}}}
	pred := spec.WrapModel(model.Oracle{})
	vm := &cluster.VM{ID: 1, Created: 40 * time.Hour, TrueLifetime: 200 * time.Hour}

	before := pred.PredictRemaining(vm, 5*time.Hour) // sim time 45h < swap
	if want := (model.Oracle{}).PredictRemaining(vm, 5*time.Hour); before != want {
		t.Fatalf("pre-swap prediction %v != oracle %v", before, want)
	}
	after := pred.PredictRemaining(vm, 20*time.Hour) // sim time 60h >= swap
	noisy := &model.NoisyOracle{Accuracy: 0, Seed: spec.Seed}
	if want := noisy.PredictRemaining(vm, 20*time.Hour); after != want {
		t.Fatalf("post-swap prediction %v != degraded model %v", after, want)
	}
	if got := (model.Oracle{}).PredictRemaining(vm, 20*time.Hour); after == got {
		t.Fatalf("post-swap prediction still matches the oracle (%v)", got)
	}
}

// --- Catalog and validation ----------------------------------------------

func TestCatalogCoversAndValidates(t *testing.T) {
	tr := testTrace(t, 3)
	specs := Catalog(tr, 42)
	if len(specs) != len(Names()) {
		t.Fatalf("catalog has %d specs, names %d", len(specs), len(Names()))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog scenario %s invalid: %v", s.Name, err)
		}
		seen[s.Name] = true
		// Every event sits inside the measured window so scaled-down
		// studies still exercise it.
	}
	for _, want := range []string{"steady", "surge", "flash-crowd", "drain-wave", "failures", "crunch", "model-swap"} {
		if !seen[want] {
			t.Errorf("catalog missing %q", want)
		}
	}
	if _, err := ByName("nope", tr, 1); err == nil {
		t.Error("unknown scenario must fail")
	}
	got, err := ByName("drain-wave", tr, 1)
	if err != nil || got.Name != "drain-wave" {
		t.Errorf("ByName(drain-wave) = %+v, %v", got, err)
	}
}

func TestSpecValidateRejectsBadEvents(t *testing.T) {
	bad := []Event{
		Surge{At: 0, For: 0, Factor: 2},
		Surge{At: 0, For: time.Hour, Factor: 1},
		DrainWave{Waves: 0, Every: time.Hour, For: time.Hour, Frac: 0.1},
		DrainWave{Waves: 1, Every: time.Hour, For: time.Hour, Frac: 1.5},
		Failures{Frac: 0},
		Crunch{Frac: 2},
		ModelSwap{Accuracy: 1.5},
	}
	for i, ev := range bad {
		spec := Spec{Name: "bad", Seed: 1, Events: []Event{ev}}
		if err := spec.Validate(); err == nil {
			t.Errorf("bad event %d (%s) accepted", i, ev.Kind())
		}
	}
}

// TestScenarioEndToEnd replays a composed scenario through the simulator
// twice and demands identical results — the full determinism contract the
// experiment matrix relies on.
func TestScenarioEndToEnd(t *testing.T) {
	base := testTrace(t, 5)
	for _, name := range []string{"drain-wave", "failures", "crunch"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name, base, 17)
			if err != nil {
				t.Fatal(err)
			}
			run := func() *sim.Result {
				tr, err := spec.ComposeTrace(base)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Trace:           tr,
					Policy:          scheduler.NewWasteMin(),
					Injectors:       spec.Injectors(0),
					CheckInvariants: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.AvgEmptyHostFrac != b.AvgEmptyHostFrac || a.Placements != b.Placements ||
				a.Failed != b.Failed || a.Killed != b.Killed {
				t.Fatal("scenario replay is not deterministic")
			}
			if name == "failures" && a.Killed == 0 {
				t.Fatal("failure scenario killed no VMs")
			}
		})
	}
}
