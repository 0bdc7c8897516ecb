package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
	"lava/internal/workload"
)

// latencyLimit is the placement latency limit of every workload: a
// placement later than this, failed or refused counts as a miss.
const latencyLimit = 5 * time.Millisecond

// minRounds is the fewest rounds a run makes, however short.
const minRounds = 3

// replayArm is one policy an offline replay workload runs.
type replayArm struct {
	name   string
	policy func(pred model.Predictor) scheduler.Policy
}

// replayWorkload is an offline sim.Run workload: no serving layer at all.
type replayWorkload struct {
	name     string
	spec     workload.PoolSpec // Seed is filled per run
	streamed bool              // feed sim.Config.Source from workload.Stream instead of materialising
	train    func([]trace.Record) (model.Predictor, error)
	arms     []replayArm
	// roundSecs is what one round (set-up and one sim.Run per arm) takes on
	// the 2-core box the sizes were chosen on; it fixes how many rounds a run
	// of so many seconds makes.
	roundSecs float64
}

// replayGBDT is the paper-figure path: a materialised trace replayed under
// LAVA over a 100-tree GBDT, so nearly all the time is model inference.
// Sized down from the issue's 96 hosts x (7+21) days so that one rep takes
// ~2 s and a run fits several.
var replayGBDT = &replayWorkload{
	name: "replay-gbdt",
	spec: workload.PoolSpec{Name: "replay-gbdt", Zone: "zone-a", Hosts: 96, TargetUtil: 0.65,
		Prefill: 3 * simtime.Day, Duration: 7 * simtime.Day, Diurnal: 0.3},
	train: func(recs []trace.Record) (model.Predictor, error) {
		return model.TrainGBDT(recs, gbdt.Params{Trees: 100})
	},
	arms: []replayArm{{"lava", func(p model.Predictor) scheduler.Policy {
		return scheduler.NewLAVA(p, time.Minute)
	}}},
	roundSecs: 3.1,
}

// replayScale is the pool-scale path: a streamed trace over 10,000 hosts
// with a free model, so the scheduler's winning-bucket filter, the epoch
// rollover, the pool columns and the event cursor are all that is left.
// Sized down from the issue's 20,000 hosts x (24+6) h, where one pair of
// arms took 12 s.
var replayScale = &replayWorkload{
	name: "replay-scale",
	spec: workload.PoolSpec{Name: "replay-scale", Zone: "zone-a", Hosts: 10_000, TargetUtil: 0.65,
		Prefill: 12 * time.Hour, Duration: 3 * time.Hour, Diurnal: 0.3},
	streamed: true,
	train:    func([]trace.Record) (model.Predictor, error) { return model.Oracle{}, nil },
	arms: []replayArm{
		{"wastemin", func(model.Predictor) scheduler.Policy { return scheduler.NewWasteMin() }},
		{"lava-epoch", func(p model.Predictor) scheduler.Policy {
			return scheduler.NewLAVAEpoch(p, time.Minute, scheduler.DefaultEpoch)
		}},
	},
	roundSecs: 3.1,
}

// replayInput is one set-up of a replay workload.
type replayInput struct {
	meta    *trace.Trace                 // pool geometry; Records too when materialised
	source  func() (trace.Stream, error) // a fresh record stream per rep; nil when materialised
	pred    model.Predictor
	events  int // create+exit events up to the horizon
	creates int
}

// setup generates the inputs: the trace (or, streamed, one counting pass
// over the generator — the run needs the event count), and the model.
func (w *replayWorkload) setup(seed int64) (*replayInput, error) {
	spec := w.spec
	spec.Seed = seed
	in := &replayInput{}
	var probe cursorProbe
	if w.streamed {
		g, err := workload.Stream(spec)
		if err != nil {
			return nil, err
		}
		in.meta = g.Meta()
		in.source = func() (trace.Stream, error) { return workload.Stream(spec) }
		if probe, err = probeCursor(g, in.meta.End()); err != nil {
			return nil, err
		}
	} else {
		tr, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		in.meta = tr
		if probe, err = probeCursor(tr.Stream(), tr.End()); err != nil {
			return nil, err
		}
	}
	in.events, in.creates = probe.events, probe.creates
	pred, err := w.train(in.meta.Records)
	if err != nil {
		return nil, err
	}
	in.pred = pred
	return in, nil
}

// simConfig builds the sim.Config of one rep.
func (in *replayInput) simConfig(pol scheduler.Policy) (sim.Config, error) {
	cfg := sim.Config{Trace: in.meta, Policy: pol}
	if in.source != nil {
		src, err := in.source()
		if err != nil {
			return cfg, err
		}
		cfg.Source = src
	}
	return cfg, nil
}

// canonical is the byte form two results are compared in.
func canonical(res *sim.Result) ([]byte, error) {
	return json.Marshal(runner.MetricsOf(res))
}

// driveStats is what the benchmark's own replay loop timed.
type driveStats struct {
	createNS   []int64       // every Machine.Create call
	machineSum time.Duration // all Create and Exit calls
	finish     time.Duration
	wall       time.Duration
}

// driveMachine is sim.Run's loop with a clock around each Machine call:
// the same events into the same engine, so its result must be byte-equal
// to sim.Run's. With a recorder it also emits the root spans of sampled
// events.
func driveMachine(cfg sim.Config, rec *spanRecorder) (*sim.Result, *driveStats, error) {
	ds := &driveStats{}
	start := time.Now()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	src := cfg.Source
	if src == nil {
		src = cfg.Trace.Stream()
	}
	cur := trace.NewEventCursor(src)
	for req := uint64(1); ; req++ {
		ev, ok := cur.Next()
		if !ok {
			if err := cur.Err(); err != nil {
				return nil, nil, fmt.Errorf("trace stream: %w", err)
			}
			break
		}
		if ev.Time > m.End() {
			break
		}
		t0 := time.Now()
		name := "sim.machine.exit"
		if ev.Kind == trace.EventCreate {
			name = "sim.machine.create"
			_, err = m.Create(ev.Rec, ev.Time)
			if slo.IsReject(err) {
				err = nil
			}
		} else {
			_, err = m.Exit(ev.Rec.ID, ev.Time)
		}
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		d := t1.Sub(t0)
		ds.machineSum += d
		if ev.Kind == trace.EventCreate {
			ds.createNS = append(ds.createNS, int64(d))
		}
		if rec != nil && sampled(req) {
			rec.add(name, "", req, t0, t1)
		}
	}
	t0 := time.Now()
	res, err := m.Finish()
	ds.finish = time.Since(t0)
	ds.wall = time.Since(start)
	return res, ds, err
}

// checkRep applies the per-rep output checks: pool invariants, and byte
// identity with the arm's first result.
func checkRep(out *outcome, arm string, res *sim.Result, want *[]byte) error {
	if err := res.FinalPool.CheckInvariants(); err != nil {
		out.fail("%s: final pool: %v", arm, err)
	}
	got, err := canonical(res)
	if err != nil {
		return err
	}
	if *want == nil {
		*want = got
	} else if !bytes.Equal(got, *want) {
		out.fail("%s: rep differs from the first:\n got %s\nwant %s", arm, got, *want)
	}
	return nil
}

// rounds is how many rounds fit the run's seconds, three at least.
func (w *replayWorkload) rounds(seconds float64) int {
	return max(minRounds, int(seconds/w.roundSecs))
}

func (w *replayWorkload) run(cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return w.runTraced(cfg)
	}
	out := newOutcome()
	rs := &roundStats{}
	runStart := time.Now()
	rounds := w.rounds(cfg.seconds)
	for k := 0; k < rounds; k++ {
		// A host twice as slow as the one the sizes were chosen on would
		// otherwise run into the driver's limit on a run.
		if k >= minRounds && time.Since(runStart).Seconds() > 1.5*cfg.seconds {
			out.note("stopped after %d of %d rounds: %.0fs used", k, rounds, time.Since(runStart).Seconds())
			break
		}
		start := time.Now()
		in, err := w.setup(roundSeed(cfg.seed, k))
		if err != nil {
			return nil, err
		}
		rv := roundValues{setupS: time.Since(start).Seconds()}

		mw := startMemWatch()
		want := make([][]byte, len(w.arms))
		reps := 0
		var creates, onTime int
		if k == 0 {
			// One pass through the benchmark's own loop times each placement,
			// which sim.Run cannot, and gives the timed rep below a result to
			// be byte-identical with: Machine ≡ Run and rep ≡ rep at once.
			for a, arm := range w.arms {
				sc, err := in.simConfig(arm.policy(in.pred))
				if err != nil {
					return nil, err
				}
				res, ds, err := driveMachine(sc, nil)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", arm.name, err)
				}
				if err := checkRep(out, arm.name, res, &want[a]); err != nil {
					return nil, err
				}
				for _, d := range ds.createNS {
					if time.Duration(d) <= latencyLimit {
						onTime++
					}
				}
				creates += len(ds.createNS)
				lat := sortedMS(ds.createNS)
				out.note("%s: Machine.Create p50 %.4f p95 %.4f max %.3f ms over %d placements",
					arm.name, percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 1), len(lat))
			}
			reps++
			mw.sample()
		}

		// The timed rep: sim.Run, every arm.
		var secs float64
		for a, arm := range w.arms {
			sc, err := in.simConfig(arm.policy(in.pred))
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, err := sim.Run(sc)
			secs += time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arm.name, err)
			}
			if err := checkRep(out, arm.name, res, &want[a]); err != nil {
				return nil, err
			}
			rv.placements += res.Placements
			rv.failedPlace += res.Failed
			rv.emptyFrac = res.AvgEmptyHostFrac // the last arm's: the LAVA one
		}
		reps++
		mem := mw.finish()

		processed := in.events * len(w.arms) * reps
		out.attempted += processed
		rv.rates = []float64{float64(in.events*len(w.arms)) / secs}
		rv.peakHeapMB = mem.peakHeapMB
		rv.allocKBPerEv = mem.allocBytes / 1024 / float64(processed)
		rv.onTimeShare = -1 // only round 0 times single placements
		if k == 0 {
			rv.onTimeShare = float64(onTime) / float64(creates)
		}
		rs.add(rv)
	}
	rs.report(out)
	return out, nil
}

// layerSums accumulates a traced replay's layer clocks across arms and
// passes; every per-layer metric is a ratio of these sums or a percentile
// of the pooled samples.
type layerSums struct {
	reps            int
	events, creates int
	tracedWall      time.Duration
	untracedWall    time.Duration
	machine, finish time.Duration
	createNS        []int64
	policy          policySums
	model           predClock // one clock across all passes
}

func (s *layerSums) add(in *replayInput, ds *driveStats, cc *cellClock, untraced time.Duration) {
	s.reps++
	s.events += in.events
	s.creates += in.creates
	s.tracedWall += ds.wall
	s.untracedWall += untraced
	s.machine += ds.machineSum
	s.finish += ds.finish
	s.createNS = append(s.createNS, ds.createNS...)
	s.policy.add(cc)
}

// report writes the sums as per-layer metrics.
func (s *layerSums) report(out *outcome) {
	s.model.report(out, s.tracedWall)
	out.set("model.calls_per_placement", float64(s.model.calls.Load())/float64(s.creates))
	s.policy.report(out, s.tracedWall, s.events)
	out.set("sim.self_us_per_event", us(s.machine-s.policy.sched-s.policy.hooks)/float64(s.events))
	out.set("sim.finish_ms", ms(s.finish)/float64(s.reps))
	create := sortedUS(s.createNS)
	out.setN("sim.create_us_p50", percentile(create, 0.50), len(create))
	out.setN("sim.create_us_p95", percentile(create, 0.95), len(create))
	out.set("bench.trace_overhead_share", 1-float64(s.untracedWall)/float64(s.tracedWall))
}

// runTraced measures the layers of an offline replay: isolated probes of
// the generator, the cursor and the pool, then pairs of an untraced
// sim.Run and a decorated pass through the benchmark's own loop.
func (w *replayWorkload) runTraced(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	seed := roundSeed(cfg.seed, 0) // round 0 of the untraced run
	spec := w.spec
	spec.Seed = seed

	// workload: generation alone, materialised either way.
	genStart := time.Now()
	g, err := workload.Stream(spec)
	if err != nil {
		return nil, err
	}
	recs, err := trace.Collect(g)
	if err != nil {
		return nil, err
	}
	out.set("workload.gen_ms", ms(time.Since(genStart)))
	out.set("workload.records", float64(len(recs)))

	in, err := w.setup(seed)
	if err != nil {
		return nil, err
	}

	// trace: the cursor alone, over the already-generated records.
	probe, err := probeCursor((&trace.Trace{Records: recs}).Stream(), in.meta.End())
	if err != nil {
		return nil, err
	}
	evs, err := collectEvents((&trace.Trace{Records: recs}).Stream(), in.meta.End())
	if err != nil {
		return nil, err
	}
	out.set("trace.cursor_ns_per_event", probe.nsPerEvent())
	out.set("trace.live_max", float64(probe.liveMax))
	seqs := newSeqIndex(evs, len(recs))

	// cluster: the pool mutators alone.
	pe, err := probePlaceExit(spec.Hosts)
	if err != nil {
		return nil, err
	}
	out.set("cluster.place_exit_ns", pe)

	rec := newSpanRecorder()
	mw := startMemWatch()
	start := time.Now()
	total := &layerSums{}
	perArm := make([]*layerSums, len(w.arms))
	for a := range perArm {
		perArm[a] = &layerSums{}
	}
	var lastPass time.Duration
	for n := 0; n == 0 || time.Since(start)+lastPass <= time.Duration(cfg.seconds*float64(time.Second)); n++ {
		passStart := time.Now()
		for a, arm := range w.arms {
			sc, err := in.simConfig(arm.policy(in.pred))
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			plain, err := sim.Run(sc)
			untraced := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", arm.name, err)
			}
			var want []byte
			if err := checkRep(out, arm.name, plain, &want); err != nil {
				return nil, err
			}

			cc := &cellClock{rec: rec, seqs: seqs, createRoot: "sim.machine.create", exitRoot: "sim.machine.exit"}
			pol := &tracedPolicy{inner: arm.policy(&timedPredictor{inner: in.pred, clk: &total.model, c: cc}), c: cc}
			if sc, err = in.simConfig(pol); err != nil {
				return nil, err
			}
			var keep *spanRecorder
			if n == 0 {
				keep = rec // spans of the first pass only: later passes repeat the same requests
			} else {
				cc.rec = nil
			}
			res, ds, err := driveMachine(sc, keep)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", arm.name, err)
			}
			// Tracing is observe-only: same bytes as the untraced rep.
			if err := checkRep(out, arm.name+" traced", res, &want); err != nil {
				return nil, err
			}
			total.add(in, ds, cc, untraced)
			perArm[a].add(in, ds, cc, untraced)
			out.attempted += 2 * in.events
		}
		lastPass = time.Since(passStart)
	}
	mem := mw.finish()

	total.report(out)
	if len(w.arms) > 1 {
		for a, arm := range w.arms {
			s := perArm[a]
			sched := sortedUS(s.policy.schedNS)
			out.set("scheduler."+arm.name+".schedule_us_p50", percentile(sched, 0.50))
			out.set("scheduler."+arm.name+".schedule_us_max", percentile(sched, 1))
			out.set("sim."+arm.name+".events_per_s", float64(s.events)/s.untracedWall.Seconds())
		}
	}
	out.set("runtime.gc_cycles", mem.gcCycles)
	out.set("runtime.gc_pause_ms_total", mem.gcPauseMS)
	n, err := rec.write(cfg.spanDir, w.name)
	if err != nil {
		return nil, err
	}
	out.set("bench.spans_written", float64(n))
	return out, nil
}

// collectEvents materialises the event sequence up to the horizon.
func collectEvents(src trace.Stream, end time.Duration) ([]trace.Event, error) {
	var evs []trace.Event
	cur := trace.NewEventCursor(src)
	for {
		ev, ok := cur.Next()
		if !ok || ev.Time > end {
			break
		}
		evs = append(evs, ev)
	}
	return evs, cur.Err()
}
