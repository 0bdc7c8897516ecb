package sim_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func replayTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "replay-test", Zone: "z1", Hosts: 16, TargetUtil: 0.6,
		Duration: 3 * simtime.Day, Prefill: 2 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func recordRun(t *testing.T, tr *trace.Trace, pol scheduler.Policy, inj ...sim.Injector) *ptrace.Recorder {
	t.Helper()
	rec := ptrace.New(ptrace.Options{K: 4, Policy: pol.Name()})
	if _, err := sim.Run(sim.Config{Trace: tr, Policy: pol, Tracer: rec, Injectors: inj}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkSelfReplay requires a report of zero divergences over a non-empty
// stream.
func checkSelfReplay(t *testing.T, name string, rep *ptrace.Report) {
	t.Helper()
	if len(rep.Divergences) != 0 {
		t.Fatalf("%s self-replay diverged %d times, first at seq %d",
			name, len(rep.Divergences), rep.Divergences[0].Seq)
	}
	if rep.Matches != rep.Decisions || rep.Decisions == 0 {
		t.Fatalf("%s self-replay: %d matches of %d decisions", name, rep.Matches, rep.Decisions)
	}
	if rep.TotalRegret != 0 {
		t.Fatalf("%s self-replay regret = %v", name, rep.TotalRegret)
	}
}

// TestReplaySelfParity is the first parity anchor: replaying a policy's own
// decision stream under a fresh instance of the same policy reproduces
// every decision exactly.
func TestReplaySelfParity(t *testing.T) {
	tr := replayTrace(t, 11)
	for _, mk := range []func() scheduler.Policy{
		func() scheduler.Policy { return scheduler.NewWasteMin() },
		func() scheduler.Policy { return scheduler.NewNILAS(model.Oracle{}, time.Minute) },
		func() scheduler.Policy { return scheduler.NewLAVA(model.Oracle{}, time.Minute) },
	} {
		pol := mk()
		rec := recordRun(t, tr, pol)
		rep, err := sim.Replay(tr, mk(), rec.Decisions())
		if err != nil {
			t.Fatal(err)
		}
		checkSelfReplay(t, pol.Name(), rep)
	}
}

// tickProbe fingerprints the pool at every OnTick, before the wrapped
// policy's own OnTick runs: the pool state the policy ticks on.
type tickProbe struct {
	scheduler.Policy
	prints []uint64
}

func (p *tickProbe) OnTick(pool *cluster.Pool, now time.Duration) {
	h := fnv.New64a()
	fmt.Fprint(h, now)
	for _, host := range pool.Hosts() {
		fmt.Fprint(h, host.ID, host.Occupancy(), host.Unavailable(), host.Used())
		for _, vm := range host.VMs() {
			fmt.Fprint(h, vm.ID)
		}
	}
	p.prints = append(p.prints, h.Sum64())
	p.Policy.OnTick(pool, now)
}

// burstInjector is the fixture of several recorded events at one tick: at
// At it kills the two lowest-ID running VMs and withdraws hosts 0 and 1;
// at At+For it restores both hosts and kills the lowest-ID running VM.
type burstInjector struct {
	At, For time.Duration
	fired   int
}

func (b *burstInjector) Inject(ctl *sim.Control, now time.Duration) {
	kill := func(n int) {
		for _, vm := range ctl.Pool().RunningVMs()[:n] {
			if err := ctl.Kill(vm.ID, now); err != nil {
				panic(err)
			}
		}
	}
	switch {
	case b.fired == 0 && now >= b.At:
		kill(2)
		if err := errors.Join(ctl.Withdraw(0), ctl.Withdraw(1)); err != nil {
			panic(err)
		}
		b.fired++
	case b.fired == 1 && now >= b.At+b.For:
		if err := errors.Join(ctl.Restore(0), ctl.Restore(1)); err != nil {
			panic(err)
		}
		kill(1)
		b.fired++
	}
}

// TestReplayInjectedEvents is self-replay parity on streams that carry
// kills, withdrawals and restores: the catalog scenarios and the burst
// fixture, under three policies. Beyond zero divergences, the candidate
// must tick on the pool the recording ticked on, at every tick — so an
// event applied after its tick's OnTick, or a tick late, fails here even
// where no placement moves.
func TestReplayInjectedEvents(t *testing.T) {
	tr := replayTrace(t, 14)
	type run struct {
		name string
		tr   *trace.Trace
		pred model.Predictor
		inj  func() []sim.Injector
	}
	var runs []run
	for _, spec := range scenario.Catalog(tr, 3) {
		composed, err := spec.ComposeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{spec.Name, composed, spec.WrapModel(model.Oracle{}),
			func() []sim.Injector { return spec.Injectors(0) }})
	}
	burstAt := tr.WarmUp + simtime.Day
	runs = append(runs, run{"burst", tr, model.Oracle{}, func() []sim.Injector {
		return []sim.Injector{&burstInjector{At: burstAt, For: 6 * time.Hour}}
	}})

	withEvents := 0
	for _, r := range runs {
		for _, name := range []string{"wastemin", "nilas", "lava"} {
			mk := func() *tickProbe {
				pol, err := scheduler.New(name, r.pred)
				if err != nil {
					t.Fatal(err)
				}
				return &tickProbe{Policy: pol}
			}
			recorded := mk()
			ds := recordRun(t, r.tr, recorded, r.inj()...).Decisions()
			events := map[ptrace.Kind]int{}
			atTick := map[time.Duration]int{}
			for _, d := range ds {
				if d.Kind >= ptrace.KindKill {
					events[d.Kind]++
					atTick[d.T]++
				}
			}
			if len(events) > 0 {
				withEvents++
			}
			if r.name == "burst" {
				want := map[ptrace.Kind]int{ptrace.KindKill: 3, ptrace.KindWithdraw: 2, ptrace.KindRestore: 2}
				if fmt.Sprint(events) != fmt.Sprint(want) || atTick[burstAt] != 4 {
					t.Fatalf("burst/%s: events %v, %d at %v; want %v, 4 at one tick", name, events, atTick[burstAt], burstAt, want)
				}
			}

			replayed := mk()
			rep, err := sim.Replay(r.tr, replayed, ds)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.name, name, err)
			}
			checkSelfReplay(t, r.name+"/"+name, rep)
			// Replay ticks up to the last decision, the recording up to End.
			if n := int(ds[len(ds)-1].T / simtime.TickEvery); len(replayed.prints) != n || n > len(recorded.prints) {
				t.Fatalf("%s/%s: replay ticked %d times, want %d of the recording's %d",
					r.name, name, len(replayed.prints), n, len(recorded.prints))
			}
			for i := range replayed.prints {
				if replayed.prints[i] != recorded.prints[i] {
					t.Fatalf("%s/%s: pool at the OnTick of %v differs from the recording's",
						r.name, name, time.Duration(i+1)*simtime.TickEvery)
				}
			}
		}
	}
	// drain-wave, failures and crunch inject, and so does the fixture.
	if withEvents < 4*3 {
		t.Fatalf("only %d runs carried injected events", withEvents)
	}
}

// TestReplayCrossPolicy replays a waste-min stream under NILAS and checks
// the report's internal consistency: counts add up, and every priced
// divergence carries a level within the candidate's chain and a regret
// whose sign says the candidate preferred its own pick.
func TestReplayCrossPolicy(t *testing.T) {
	tr := replayTrace(t, 12)
	rec := recordRun(t, tr, scheduler.NewWasteMin())
	rep, err := sim.Replay(tr, scheduler.NewNILAS(model.Oracle{}, time.Minute), rec.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches+len(rep.Divergences) != rep.Decisions {
		t.Fatalf("matches %d + divergences %d != decisions %d", rep.Matches, len(rep.Divergences), rep.Decisions)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("lifetime-aware NILAS should diverge from waste-min somewhere")
	}
	var regret float64
	for _, d := range rep.Divergences {
		if d.Level < -1 || d.Level > 3 {
			t.Fatalf("divergence level %d out of range: %+v", d.Level, d)
		}
		if d.Level >= 0 && d.Regret == 0 {
			t.Fatalf("priced divergence with zero regret: %+v", d)
		}
		if d.Level == -1 && d.Regret != 0 {
			t.Fatalf("tie divergence with regret: %+v", d)
		}
		if d.Recorded == d.Chosen {
			t.Fatalf("divergence with equal hosts: %+v", d)
		}
		regret += d.Regret
	}
	if regret != rep.TotalRegret {
		t.Fatalf("total regret %v != sum %v", rep.TotalRegret, regret)
	}
}

// TestReplayRejectsStrippedStreams: a ring-truncated stream (no creation
// records, or decisions missing entirely) must fail loudly, not replay
// nonsense.
func TestReplayRejectsStrippedStreams(t *testing.T) {
	tr := replayTrace(t, 13)
	rec := recordRun(t, tr, scheduler.NewWasteMin())
	ds := rec.Decisions()

	// Strip a creation record.
	for i := range ds {
		if ds[i].Kind == ptrace.KindPlace {
			ds[i].Rec = nil
			break
		}
	}
	_, err := sim.Replay(tr, scheduler.NewWasteMin(), ds)
	if err == nil || !strings.Contains(err.Error(), "no creation record") {
		t.Fatalf("stripped stream error = %v", err)
	}

	// Missing geometry.
	if _, err := sim.Replay(&trace.Trace{}, scheduler.NewWasteMin(), nil); err == nil {
		t.Fatal("replay without pool geometry must fail")
	}
	if _, err := sim.Replay(&trace.Trace{Hosts: 4}, nil, nil); err == nil {
		t.Fatal("replay without policy must fail")
	}
}
