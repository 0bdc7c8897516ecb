// Command lavasim replays a trace against a scheduling policy and prints
// the bin-packing metrics the paper reports.
//
// Usage:
//
//	lavasim -trace trace.jsonl -policy lava -model gbdt
//	lavasim -trace trace.jsonl -policy wastemin
//	lavasim -trace trace.jsonl -policy nilas -model oracle -defrag
//	lavasim -trace trace.jsonl -cells 4 -scenario drain-wave   # federation
//	lavasim -trace trace.jsonl -class-mix "latency=1,standard=8" -admit "latency=10/1h"
//
// With -cells > 1 or -scenario set, the run is the offline run of a fleet
// (lava.ReplayFleetOffline): the named scenario (see -scenario for ids)
// composes onto the trace, a router spreads it across -cells independent
// cells, and per-cell metrics are printed with a fleet-level rollup. It is
// the routing ledger, per-cell machines and front-door gate a live
// `lavad -cells N` runs, just sequential, so -final-out diffs byte-for-byte
// against a `lavaload -final-out` capture of the same stream served online.
// A single-cell run writes the leaf report a single `lavad` drains to.
//
// -class-mix labels records with SLO classes (deterministic in -seed and
// record ID) and -admit enables per-class token-bucket admission control;
// rejected arrivals are counted per class, never placed, and the report
// gains per-class counts, Jain's fairness index and the multi-objective
// fitness score.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lava"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/stranding"
	"lava/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (required)")
		policy    = flag.String("policy", "lava", "wastemin | bestfit | la-binary | nilas | lava")
		modelKind = flag.String("model", "gbdt", "oracle | gbdt | km | dist (lifetime model for lifetime-aware policies)")
		modelPath = flag.String("model-file", "", "load a pre-trained GBDT model instead of training on the trace")
		trees     = flag.Int("trees", 400, "GBDT trees when training in-process")
		refresh   = flag.Duration("cache", time.Minute, "host score cache refresh interval (0 disables)")
		doDefrag  = flag.Bool("defrag", false, "enable the defragmentation engine (LARS ordering)")
		doStrand  = flag.Bool("stranding", false, "measure stranding via inflation probes")
		cells     = flag.Int("cells", 1, "shard the workload across this many independent cells")
		scen      = flag.String("scenario", "", "scenario id ("+strings.Join(lava.ScenarioNames(), "|")+"); empty = steady replay")
		router    = flag.String("router", "feature-hash", "cell router: round-robin | least-utilized | feature-hash")
		seed      = flag.Int64("seed", 42, "scenario randomness seed")
		finalOut  = flag.String("final-out", "", "write the drain report as canonical JSON to this file ('-' for stdout) for diffing against lavaload -final-out")
		classMix  = flag.String("class-mix", "", `label records with SLO classes, e.g. "latency=1,standard=8,besteffort=1" (weights; assignment keyed by -seed and record ID)`)
		admit     = flag.String("admit", "", `SLO admission control, e.g. "latency=100/1m:200,standard=50/1m" or "track" — must match the daemon's -admit when diffing against an online run`)
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := tr.Validate(); err != nil {
		fatal(err)
	}

	pred, err := buildModel(tr, *modelKind, *modelPath, *trees)
	if err != nil {
		fatal(err)
	}

	if *cells > 1 || *scen != "" {
		if *doDefrag || *doStrand {
			fatal(fmt.Errorf("-defrag/-stranding are single-cell options; drop them for federated runs"))
		}
		runFederated(tr, lava.FleetConfig{
			ServeConfig: lava.ServeConfig{
				Policy:       lava.PolicyKind(*policy),
				Pred:         pred,
				CacheRefresh: lava.CacheRefreshFlag(*refresh),
				Admission:    *admit,
			},
			Cells:        *cells,
			Router:       lava.RouterKind(*router),
			Scenario:     *scen,
			ScenarioSeed: *seed,
			ClassMix:     *classMix,
		}, *finalOut)
		return
	}
	if *classMix != "" {
		if tr, err = lava.AssignClasses(tr, *classMix, *seed); err != nil {
			fatal(err)
		}
	}

	pol, err := scheduler.New(*policy, pred, *refresh)
	if err != nil {
		fatal(err)
	}

	cfg := sim.Config{Trace: tr, Policy: pol}
	if *admit != "" {
		sc, err := slo.ParseConfig(*admit)
		if err != nil {
			fatal(err)
		}
		cfg.SLO = sc
	}
	var eng *defrag.Engine
	if *doDefrag {
		eng = defrag.New(defrag.Config{Strategy: defrag.OrderLARS, Policy: pol, Pred: pred})
		cfg.Components = append(cfg.Components, eng)
	}
	var probe *stranding.Prober
	if *doStrand {
		probe = &stranding.Prober{Mix: stranding.MixFromTrace(tr.Records, 8), Every: 12 * time.Hour}
		cfg.Components = append(cfg.Components, probe)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("pool: %s  policy: %s  hosts: %d  records: %d\n", res.PoolName, res.Policy, tr.Hosts, len(tr.Records))
	fmt.Printf("placements: %d  exits: %d  failed: %d  model calls: %d\n", res.Placements, res.Exits, res.Failed, res.ModelCalls)
	fmt.Printf("avg empty hosts:      %6.2f%%\n", 100*res.AvgEmptyHostFrac)
	fmt.Printf("avg empty-to-free:    %6.2f%%\n", 100*res.AvgEmptyToFree)
	fmt.Printf("avg packing density:  %6.2f%%\n", 100*res.AvgPackingDensity)
	fmt.Printf("avg cpu utilization:  %6.2f%%\n", 100*res.AvgCPUUtil)
	if eng != nil {
		fmt.Printf("defrag: planned %d performed %d saved %d freed %d rounds %d\n",
			eng.Stats.Planned, eng.Stats.Performed, eng.Stats.Saved, eng.Stats.HostsFreed, eng.Stats.Rounds)
	}
	if probe != nil {
		fmt.Printf("stranding: cpu %5.2f%%  memory %5.2f%%\n",
			100*probe.AvgStrandedCPU(tr.WarmUp), 100*probe.AvgStrandedMem(tr.WarmUp))
	}
	res.SLO.WriteText(os.Stdout)
	if *finalOut != "" {
		leaf := &serve.DrainResponse{Pool: res.PoolName, Policy: res.Policy,
			Metrics: runner.MetricsOf(res), SeriesLen: res.Series.Len()}
		if err := writeFinal(*finalOut, leaf); err != nil {
			fatal(err)
		}
	}
}

// runFederated runs the offline run of the fleet cfg describes and prints
// its report.
func runFederated(tr *trace.Trace, cfg lava.FleetConfig, finalOut string) {
	ff, err := lava.ReplayFleetOffline(tr, cfg)
	if err != nil {
		fatal(err)
	}
	printFleetReport(ff, cfg.Scenario, cfg.Cells, cfg.Admission)
	if finalOut != "" {
		if err := writeFinal(finalOut, ff); err != nil {
			fatal(err)
		}
	}
}

// printFleetReport prints a federated run in one of two layouts: without
// -admit, per-cell rows and a killed count (CI's docs job parses the table);
// with it, the admission spec in the header and the per-class SLO block.
func printFleetReport(ff *serve.DrainResponse, scen string, cells int, admit string) {
	if scen == "" {
		scen = "steady"
	}
	m := ff.Metrics
	fmt.Printf("scenario: %s  policy: %s  cells: %d  router: %s", scen, ff.Policy, cells, ff.Router)
	if admit != "" {
		fmt.Printf("  admit: %s\n", admit)
	} else {
		fmt.Println("\ncell                  | hosts | empty hosts | cpu util | placed | failed | killed")
		for i, c := range ff.Cells {
			fmt.Printf("%-21s | %5d | %10.2f%% | %7.2f%% | %6d | %6d | %6d\n",
				c.Pool, ff.Hosts[i], 100*c.Metrics.AvgEmptyHostFrac, 100*c.Metrics.AvgCPUUtil,
				c.Metrics.Placements, c.Metrics.Failed, c.Metrics.Killed)
		}
	}
	fmt.Printf("rollup: empty hosts %.2f%%  cpu util %.2f%%  util spread %.2f pp  placed %d  failed %d",
		100*m.AvgEmptyHostFrac, 100*m.AvgCPUUtil, 100*ff.UtilSpread, m.Placements, m.Failed)
	if admit == "" {
		fmt.Printf("  killed %d", m.Killed)
	}
	fmt.Println()
	m.SLO.WriteText(os.Stdout)
}

// writeFinal emits a drain report as canonical JSON: the projection a live
// daemon's /drain handler applies, so the bytes diff cleanly against a
// lavaload -final-out capture of the online run.
func writeFinal(path string, ff *serve.DrainResponse) error {
	data, err := json.Marshal(ff)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildModel trains the requested lifetime model on the trace's records, or
// with -model-file loads a pre-trained GBDT instead.
func buildModel(tr *trace.Trace, kind, path string, trees int) (model.Predictor, error) {
	if kind != "gbdt" || path == "" {
		return model.Train(kind, tr.Records, trees)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return model.LoadGBDT(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lavasim:", err)
	os.Exit(1)
}
