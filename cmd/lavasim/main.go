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
// With -cells > 1 or -scenario set, the run goes through the multi-cell
// scenario engine: the named scenario (see -scenario for ids) composes onto
// the trace, a router shards it across -cells independent cells, the cells
// simulate concurrently (-parallel), and per-cell metrics are printed with
// a fleet-level rollup.
//
// -class-mix labels records with SLO classes (deterministic in -seed and
// record ID) and -admit enables per-class token-bucket admission control;
// rejected arrivals are counted per class, never placed, and the report
// gains per-class counts, Jain's fairness index and the multi-objective
// fitness score. Federated runs with -admit go through the fleet's offline
// script runner, so their -final-out diffs byte-for-byte against a
// `lavad -cells N -admit ...` + `lavaload -class-mix ...` online capture.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lava"
	"lava/internal/defrag"
	"lava/internal/model"
	"lava/internal/model/gbdt"
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
		parallel  = flag.Int("parallel", 0, "cell simulation workers: 1 = sequential, 0 = GOMAXPROCS")
		finalOut  = flag.String("final-out", "", "federated runs: write the fleet report as canonical JSON to this file ('-' for stdout) for diffing against lavaload -final-out")
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
		runFederated(tr, *policy, pred, *scen, *router, *cells, *seed, *parallel, *refresh, *admit, *classMix, *finalOut)
		return
	}
	if *finalOut != "" {
		fatal(fmt.Errorf("-final-out is a federated option; add -cells or -scenario"))
	}
	if *classMix != "" {
		if tr, err = lava.AssignClasses(tr, *classMix, *seed); err != nil {
			fatal(err)
		}
	}

	pol, err := buildPolicy(*policy, pred, *refresh)
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
}

// runFederated runs the federated form of the replay and prints the fleet
// report. Without -admit the trace goes through the multi-cell scenario
// engine, cells simulated concurrently, and the report carries per-cell
// rows. Admission gates live in the serving stack, not the scenario engine,
// so with -admit the same event stream goes through the fleet's offline
// script runner instead — the routing ledger, per-cell machines and
// front-door gate a live `lavad -cells N -admit ...` uses, just sequential.
func runFederated(tr *trace.Trace, policy string, pred model.Predictor, scen, router string, cells int, seed int64, parallel int, refresh time.Duration, admit, classMix, finalOut string) {
	// The -cache flag uses 0 for "disabled"; the facade's zero value means
	// "default", so map explicitly.
	cacheRefresh := refresh
	if cacheRefresh == 0 {
		cacheRefresh = -1
	}
	var ff *serve.DrainResponse
	var err error
	if admit != "" {
		ff, err = lava.ReplayFleetOffline(tr, lava.FleetConfig{
			ServeConfig: lava.ServeConfig{
				Policy:       lava.PolicyKind(policy),
				Pred:         pred,
				CacheRefresh: cacheRefresh,
				Admission:    admit,
			},
			Cells:        cells,
			Router:       lava.RouterKind(router),
			Scenario:     scen,
			ScenarioSeed: seed,
			ClassMix:     classMix,
		})
		if err != nil {
			fatal(err)
		}
		policy = ff.Policy
	} else {
		if classMix != "" {
			// Without -admit the classes are inert (they never influence
			// placement), but honoring the flag keeps the arms symmetric.
			if tr, err = lava.AssignClasses(tr, classMix, seed); err != nil {
				fatal(err)
			}
		}
		roll, err := lava.SimulateScenario(context.Background(), tr, lava.PolicyKind(policy), pred, lava.ScenarioConfig{
			Scenario:     scen,
			Seed:         seed,
			Cells:        cells,
			Router:       lava.RouterKind(router),
			CacheRefresh: cacheRefresh,
			Parallel:     parallel,
		})
		if err != nil {
			fatal(err)
		}
		report := serve.FleetReportOf(tr.PoolName, roll.Cells[0].Policy, roll)
		ff = &report
	}

	printFleetReport(ff, scen, policy, cells, admit)
	if finalOut != "" {
		if err := writeFinal(finalOut, ff); err != nil {
			fatal(err)
		}
	}
}

// printFleetReport prints a federated run: the scenario engine's report
// (admit empty) has per-cell rows and a killed count, the script runner's
// names the admission spec and ends with the per-class SLO block.
func printFleetReport(ff *serve.DrainResponse, scen, policy string, cells int, admit string) {
	if scen == "" {
		scen = "steady"
	}
	m := ff.Metrics
	fmt.Printf("scenario: %s  policy: %s  cells: %d  router: %s", scen, policy, cells, ff.Router)
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

// writeFinal emits the fleet report as canonical JSON: the projection a live
// fleet's /drain handler applies, so the bytes diff cleanly against a
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

func buildModel(tr *trace.Trace, kind, path string, trees int) (model.Predictor, error) {
	switch kind {
	case "oracle":
		return model.Oracle{}, nil
	case "km":
		return model.TrainKM(tr.Records, nil)
	case "dist":
		return model.TrainDistTable(tr.Records, nil)
	case "gbdt":
		if path != "" {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return model.LoadGBDT(f)
		}
		return model.TrainGBDT(tr.Records, gbdt.Params{Trees: trees})
	default:
		return nil, fmt.Errorf("unknown model kind %q", kind)
	}
}

func buildPolicy(kind string, pred model.Predictor, refresh time.Duration) (scheduler.Policy, error) {
	switch kind {
	case "wastemin":
		return scheduler.NewWasteMin(), nil
	case "bestfit":
		return scheduler.NewBestFit(), nil
	case "la-binary":
		return scheduler.NewLABinary(pred), nil
	case "nilas":
		return scheduler.NewNILAS(pred, refresh), nil
	case "lava":
		return scheduler.NewLAVA(pred, refresh), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lavasim:", err)
	os.Exit(1)
}
