package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func init() {
	register("scale", runScale)
}

// Scale tiers (Options.ScaleTier).
const (
	ScaleTierSmoke = "smoke"
	ScaleTierFull  = "full"
)

// Pool-size sweeps at scale 1. Options.Scale shrinks them (floor 64 hosts);
// row names keep the unscaled size, so the same row names the same cell at
// any -scale. The dual-engine sweep runs every policy on both engines as a
// differential check; the mega sweep is the million-host tier — cached
// engine only (an exhaustive arm would take days), epoch-quantized
// temporal policies, and a streamed trace that is never materialized.
var (
	scaleHostSweep  = []int{1000, 10000, 50000}
	scaleSmokeSweep = []int{1000, 10000}
	scaleMegaSweep  = []int{250000, 1000000}
)

// ScaleRow is one (pool size, policy) measurement: wall-clock seconds and
// placement throughput for the incremental score-cache engine vs the
// exhaustive reference, plus the equivalence check between the two arms.
// Mega-tier rows (CachedOnly) have no exhaustive arm: ExhSec, Speedup and
// Identical are not meaningful there and stay at their zero values.
type ScaleRow struct {
	Hosts       int // unscaled sweep size (the row's identity across -scale)
	ActualHosts int // host count actually simulated after Options.Scale
	Policy      string
	Placements  int
	CachedSec   float64
	ExhSec      float64
	Speedup     float64 // ExhSec / CachedSec
	Identical   bool    // cached and exhaustive aggregates match exactly
	CachedOnly  bool    // mega tier: streamed replay, no exhaustive arm

	// Cache is the cached arm's score-cache work: why CachedSec is what it
	// is. Deterministic per (scale, seed), like Placements.
	Cache scheduler.CacheStats
}

// ScaleReport is the pool-scale benchmark suite: how placement cost grows
// with pool size under each engine. It is the scale curve future PRs are
// held against (BENCH_scale.json).
type ScaleReport struct {
	Rows []ScaleRow
}

// Name implements Report.
func (r *ScaleReport) Name() string { return "scale" }

// Render implements Report.
func (r *ScaleReport) Render(w io.Writer) {
	fmt.Fprintln(w, "Scale — placement throughput vs pool size (cached vs exhaustive engine)")
	fmt.Fprintln(w, "hosts   | policy   | placements | cached s | exhaust s | speedup | identical | contexts | cold | rollovers | rebuilds | resynced | lazy evals |  filtered | blank picks |   cache KB | resets")
	for _, row := range r.Rows {
		ident := fmt.Sprintf("%v", row.Identical)
		exh, spd := fmt.Sprintf("%9.2f", row.ExhSec), fmt.Sprintf("%6.2fx", row.Speedup)
		if row.CachedOnly {
			ident, exh, spd = "n/a", "        -", "      -"
		}
		c := row.Cache
		fmt.Fprintf(w, "%7d | %-8s | %10d | %8.2f | %s | %s | %-9s | %8d | %4d | %9d | %8d | %8d | %10d | %9d | %11d | %10d | %6d\n",
			row.Hosts, row.Policy, row.Placements, row.CachedSec, exh, spd, ident,
			c.Contexts, c.ColdBuilds, c.Rollovers, c.Rebuilds, c.HostsResynced, c.LazyEvals, c.Filtered, c.BlankPicks, c.Bytes/1024, c.CodeResets)
	}
	fmt.Fprintln(w, "note: speedups are wall-clock and only meaningful at -parallel 1;")
	fmt.Fprintln(w, "      the benchstat-gated numbers come from BenchmarkScalePlacement.")
	fmt.Fprintln(w, "      mega rows (cached-only) replay a streamed trace under the")
	fmt.Fprintln(w, "      epoch-quantized policies; no exhaustive arm exists at that size.")
	fmt.Fprintln(w, "      contexts..resets are the cached arm's scheduler.CacheStats: live")
	fmt.Fprintln(w, "      contexts, then work totals — contexts built cold, epoch rollovers")
	fmt.Fprintln(w, "      seen, full pool rescans, dirty hosts re-scored, deep levels scored")
	fmt.Fprintln(w, "      on first read, winning-bucket members, decisions the blank shortcut")
	fmt.Fprintln(w, "      resolved — then the live footprint of every context at the end,")
	fmt.Fprintln(w, "      and levels reset by a full value table.")
}

// scaleSpec is the fig6-mix workload spec for one pool size. Durations are
// fixed (not scaled): the experiment measures scheduling cost, so the event
// volume per host is held constant while the host count sweeps.
func scaleSpec(opt Options, hosts int) workload.PoolSpec {
	return workload.PoolSpec{
		Name:       fmt.Sprintf("scale-%d", hosts),
		Zone:       "scale-zone",
		Hosts:      hosts,
		TargetUtil: 0.65,
		Duration:   12 * simtime.Hour,
		Prefill:    24 * simtime.Hour,
		Seed:       opt.Seed + int64(hosts),
		Diurnal:    0.3,
	}
}

// scaleTrace materializes the workload for one dual-engine pool size.
func scaleTrace(opt Options, hosts int) (*trace.Trace, error) {
	return workload.Generate(scaleSpec(opt, hosts))
}

// scaleCell is one cell of the sweep: the unscaled label that names its
// rows and the host count actually simulated.
type scaleCell struct {
	label int
	hosts int
}

// scaleCells applies Options.Scale to a sweep, dropping cells whose scaled
// size collides with an earlier one (the 64-host floor merges the small end
// at tiny scales).
func scaleCells(sweep []int, scale float64) []scaleCell {
	var cells []scaleCell
	for _, label := range sweep {
		n := scaleInt(label, scale, 64)
		if len(cells) > 0 && cells[len(cells)-1].hosts == n {
			continue
		}
		cells = append(cells, scaleCell{label: label, hosts: n})
	}
	return cells
}

// runScale sweeps pool size x policy x engine. Every dual-engine cell runs
// each policy twice on the identical trace — incremental score cache and
// exhaustive reference — so the sweep doubles as a differential check: the
// Identical column must read true on every dual-engine row. The mega cells
// (full tier) stream their multi-million-VM traces straight into the
// simulator and run the epoch-quantized policy variants on the cached
// engine only.
func runScale(opt Options) (Report, error) {
	tier := opt.ScaleTier
	if tier == "" {
		tier = ScaleTierFull
	}
	var dual, mega []scaleCell
	switch tier {
	case ScaleTierSmoke:
		dual = scaleCells(scaleSmokeSweep, opt.Scale)
	case ScaleTierFull:
		dual = scaleCells(scaleHostSweep, opt.Scale)
		mega = scaleCells(scaleMegaSweep, opt.Scale)
	default:
		return nil, fmt.Errorf("experiments: scale: unknown tier %q (smoke|full)", tier)
	}

	// A cheap, deterministic lifetime model: the engine comparison is about
	// scheduling structure, and model-call counts are identical on both
	// arms by construction.
	mtr, err := workload.Generate(workload.PoolSpec{
		Name: "scale-train", Zone: "scale-zone", Hosts: 64,
		TargetUtil: 0.65, Duration: 7 * simtime.Day, Seed: opt.Seed + 777,
	})
	if err != nil {
		return nil, err
	}
	pred, err := model.TrainDistTable(mtr.Records)
	if err != nil {
		return nil, err
	}

	traces := make([]*trace.Trace, len(dual))
	gen := make([]func() error, len(dual))
	for i, c := range dual {
		i, c := i, c
		gen[i] = func() error {
			tr, err := scaleTrace(opt, c.hosts)
			traces[i] = tr
			return err
		}
	}
	if err := parDo(opt, gen...); err != nil {
		return nil, err
	}

	arms := []policyArm{
		{"base", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"nilas", func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) }},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }},
	}
	// Mega arms keep the dual-sweep names ("nilas" names the lifetime-aware
	// family, not the exact scorer) but run the epoch-quantized variants:
	// the exact temporal cost is a dynamic level, O(feasible hosts) per
	// decision, which is precisely what cannot be afforded at this size.
	megaArms := []policyArm{
		{"base", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"nilas", func() scheduler.Policy {
			return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		}},
		{"lava", func() scheduler.Policy {
			return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		}},
	}
	engines := []struct {
		name string
		e    scheduler.Engine
	}{{"cached", scheduler.EngineCached}, {"exhaustive", scheduler.EngineExhaustive}}

	// Every job owns one slot of cache, by name: its policy's score-cache
	// counters, read once the replay is over (all zero on the exhaustive
	// engine).
	var jobs []runner.Job
	cache := map[string]*scheduler.CacheStats{}
	addJob := func(name string, pol func() scheduler.Policy, cfg func() (sim.Config, error)) {
		st := new(scheduler.CacheStats)
		cache[name] = st
		jobs = append(jobs, runner.Job{Name: name, Seed: opt.Seed, Run: func() (*sim.Result, error) {
			c, err := cfg()
			if err != nil {
				return nil, err
			}
			c.Policy = pol()
			res, err := sim.Run(c)
			*st = scheduler.CacheStatsOf(c.Policy)
			return res, err
		}})
	}
	for i, c := range dual {
		for _, arm := range arms {
			for _, eng := range engines {
				tr := traces[i]
				addJob(fmt.Sprintf("h%d/%s/%s", c.label, arm.name, eng.name),
					func() scheduler.Policy { return scheduler.SetEngine(arm.mk(), eng.e) },
					func() (sim.Config, error) { return sim.Config{Trace: tr}, nil })
			}
		}
	}
	for _, c := range mega {
		for _, arm := range megaArms {
			addJob(fmt.Sprintf("h%d/%s", c.label, arm.name), arm.mk, func() (sim.Config, error) {
				// The trace is generated and consumed record by record:
				// resident memory is O(live VMs), never O(trace).
				g, err := workload.Stream(scaleSpec(opt, c.hosts))
				if err != nil {
					return sim.Config{}, err
				}
				return sim.Config{Trace: g.Meta(), Source: g}, nil
			})
		}
	}

	// Run through the batch runner directly (not the batch helper): the
	// report needs the per-job wall-clock timings, which only the raw
	// JobResults carry.
	b := &runner.Batch{Parallel: opt.Parallel, OnProgress: opt.Progress}
	start := time.Now()
	results, err := b.Run(context.Background(), jobs)
	for i := range results {
		if st := cache[results[i].Name]; *st != (scheduler.CacheStats{}) {
			results[i].Cache = st
		}
	}
	if opt.Sink != nil {
		opt.Sink.Add(runner.Summarize("scale", b.Workers(), time.Since(start).Seconds(), results))
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: scale: %w", err)
	}
	byName := make(map[string]runner.JobResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}

	rep := &ScaleReport{}
	for _, c := range dual {
		for _, arm := range arms {
			cr := byName[fmt.Sprintf("h%d/%s/cached", c.label, arm.name)]
			x := byName[fmt.Sprintf("h%d/%s/exhaustive", c.label, arm.name)]
			row := ScaleRow{
				Hosts:       c.label,
				ActualHosts: c.hosts,
				Policy:      arm.name,
				Placements:  cr.Result.Placements,
				CachedSec:   cr.ElapsedSec,
				ExhSec:      x.ElapsedSec,
				Identical: cr.Result.Placements == x.Result.Placements &&
					cr.Result.Failed == x.Result.Failed &&
					cr.Result.ModelCalls == x.Result.ModelCalls &&
					cr.Result.AvgEmptyHostFrac == x.Result.AvgEmptyHostFrac &&
					cr.Result.AvgPackingDensity == x.Result.AvgPackingDensity,
				Cache: *cache[cr.Name],
			}
			if cr.ElapsedSec > 0 {
				row.Speedup = x.ElapsedSec / cr.ElapsedSec
			}
			if math.IsNaN(row.Speedup) || math.IsInf(row.Speedup, 0) {
				row.Speedup = 0
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	for _, c := range mega {
		for _, arm := range megaArms {
			cr := byName[fmt.Sprintf("h%d/%s", c.label, arm.name)]
			rep.Rows = append(rep.Rows, ScaleRow{
				Hosts:       c.label,
				ActualHosts: c.hosts,
				Policy:      arm.name,
				Placements:  cr.Result.Placements,
				CachedSec:   cr.ElapsedSec,
				CachedOnly:  true,
				Cache:       *cache[cr.Name],
			})
		}
	}
	return rep, nil
}
