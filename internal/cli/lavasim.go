package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"lava"
	"lava/internal/cell"
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

// Lavasim runs the lavasim command (see cmd/lavasim) with args, the command
// line without the program name. An offline run is not interruptible: ctx
// is accepted so the three commands share one shape, and is not read.
func Lavasim(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("lavasim", stderr)
	var (
		tracePath = fs.String("trace", "", "trace file (required)")
		policy    = fs.String("policy", "lava", "wastemin | bestfit | la-binary | nilas | lava")
		modelKind = fs.String("model", "gbdt", "oracle | gbdt | km | dist (lifetime model for lifetime-aware policies)")
		modelPath = fs.String("model-file", "", "load a pre-trained GBDT model instead of training on the trace")
		trees     = fs.Int("trees", 400, "GBDT trees when training in-process")
		refresh   = fs.Duration("cache", time.Minute, "host score cache refresh interval (0 disables)")
		doDefrag  = fs.Bool("defrag", false, "enable the defragmentation engine (LARS ordering)")
		doStrand  = fs.Bool("stranding", false, "measure stranding via inflation probes")
		cells     = fs.Int("cells", 1, "shard the workload across this many independent cells")
		scen      = fs.String("scenario", "", "scenario id ("+strings.Join(lava.ScenarioNames(), "|")+"); empty = steady replay")
		router    = fs.String("router", "feature-hash", "cell router: round-robin | least-utilized | feature-hash")
		seed      = fs.Int64("seed", 42, "scenario randomness seed")
		finalOut  = fs.String("final-out", "", "write the drain report as canonical JSON to this file ('-' for stdout) for diffing against lavaload -final-out")
		classMix  = fs.String("class-mix", "", `label records with SLO classes, e.g. "latency=1,standard=8,besteffort=1" (weights; assignment keyed by -seed and record ID)`)
		admit     = fs.String("admit", "", `SLO admission control, e.g. "latency=100/1m:200,standard=50/1m" or "track" — must match the daemon's -admit when diffing against an online run`)
	)
	return run(fs, args, stderr, func() error {
		if *tracePath == "" {
			return errors.New("-trace is required")
		}
		// A one-cell run never reaches the facade's fleet check, yet a
		// misspelt -router must not pass there either.
		if !slices.Contains(cell.RouterKinds(), *router) {
			return fmt.Errorf("unknown -router %q (have %s)", *router, strings.Join(cell.RouterKinds(), "|"))
		}
		tr, err := trace.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		pred, err := buildModel(tr, *modelKind, *modelPath, *trees)
		if err != nil {
			return err
		}

		if *cells > 1 || *scen != "" {
			if *doDefrag || *doStrand {
				return errors.New("-defrag/-stranding are single-cell options; drop them for federated runs")
			}
			ff, err := lava.ReplayFleetOffline(tr, lava.FleetConfig{
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
			})
			if err != nil {
				return err
			}
			printFleetReport(stdout, ff, *scen, *cells, *admit)
			if *finalOut != "" {
				return writeFinal(*finalOut, stdout, ff)
			}
			return nil
		}
		if *classMix != "" {
			if tr, err = lava.AssignClasses(tr, *classMix, *seed); err != nil {
				return err
			}
		}

		pol, err := scheduler.New(*policy, pred, *refresh)
		if err != nil {
			return err
		}
		cfg := sim.Config{Trace: tr, Policy: pol}
		if *admit != "" {
			if cfg.SLO, err = slo.ParseConfig(*admit); err != nil {
				return err
			}
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
			return err
		}
		fmt.Fprintf(stdout, "pool: %s  policy: %s  hosts: %d  records: %d\n", res.PoolName, res.Policy, tr.Hosts, len(tr.Records))
		fmt.Fprintf(stdout, "placements: %d  exits: %d  failed: %d  model calls: %d\n", res.Placements, res.Exits, res.Failed, res.ModelCalls)
		fmt.Fprintf(stdout, "avg empty hosts:      %6.2f%%\n", 100*res.AvgEmptyHostFrac)
		fmt.Fprintf(stdout, "avg empty-to-free:    %6.2f%%\n", 100*res.AvgEmptyToFree)
		fmt.Fprintf(stdout, "avg packing density:  %6.2f%%\n", 100*res.AvgPackingDensity)
		fmt.Fprintf(stdout, "avg cpu utilization:  %6.2f%%\n", 100*res.AvgCPUUtil)
		if eng != nil {
			fmt.Fprintf(stdout, "defrag: planned %d performed %d saved %d freed %d rounds %d\n",
				eng.Stats.Planned, eng.Stats.Performed, eng.Stats.Saved, eng.Stats.HostsFreed, eng.Stats.Rounds)
		}
		if probe != nil {
			fmt.Fprintf(stdout, "stranding: cpu %5.2f%%  memory %5.2f%%\n",
				100*probe.AvgStrandedCPU(tr.WarmUp), 100*probe.AvgStrandedMem(tr.WarmUp))
		}
		res.SLO.WriteText(stdout)
		if *finalOut != "" {
			return writeFinal(*finalOut, stdout, &serve.DrainResponse{Pool: res.PoolName, Policy: res.Policy,
				Metrics: runner.MetricsOf(res), SeriesLen: res.Series.Len()})
		}
		return nil
	})
}

// printFleetReport prints a federated run in one of two layouts: without
// -admit, per-cell rows and a killed count; with it, the admission spec in
// the header and the per-class SLO block.
func printFleetReport(w io.Writer, ff *serve.DrainResponse, scen string, cells int, admit string) {
	if scen == "" {
		scen = "steady"
	}
	m := ff.Metrics
	fmt.Fprintf(w, "scenario: %s  policy: %s  cells: %d  router: %s", scen, ff.Policy, cells, ff.Router)
	if admit != "" {
		fmt.Fprintf(w, "  admit: %s\n", admit)
	} else {
		fmt.Fprintln(w, "\ncell                  | hosts | empty hosts | cpu util | placed | failed | killed")
		for i, c := range ff.Cells {
			fmt.Fprintf(w, "%-21s | %5d | %10.2f%% | %7.2f%% | %6d | %6d | %6d\n",
				c.Pool, ff.Hosts[i], 100*c.Metrics.AvgEmptyHostFrac, 100*c.Metrics.AvgCPUUtil,
				c.Metrics.Placements, c.Metrics.Failed, c.Metrics.Killed)
		}
	}
	fmt.Fprintf(w, "rollup: empty hosts %.2f%%  cpu util %.2f%%  util spread %.2f pp  placed %d  failed %d",
		100*m.AvgEmptyHostFrac, 100*m.AvgCPUUtil, 100*ff.UtilSpread, m.Placements, m.Failed)
	if admit == "" {
		fmt.Fprintf(w, "  killed %d", m.Killed)
	}
	fmt.Fprintln(w)
	m.SLO.WriteText(w)
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
