package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"lava"
	"lava/internal/runner"
	"lava/internal/serve"
	"lava/internal/slo"
	"lava/internal/trace"
)

// Lavaload runs the lavaload command (see cmd/lavaload) with args, the
// command line without the program name. Cancelling ctx abandons the
// replay.
func Lavaload(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("lavaload", stderr)
	var (
		tracePath = fs.String("trace", "", "trace file to replay (required)")
		addr      = fs.String("addr", "http://127.0.0.1:8080", "lavad base URL")
		qps       = fs.Float64("qps", 0, "request pacing in requests/second (0 = as fast as the daemon accepts)")
		conc      = fs.Int("concurrency", 8, "in-flight request workers")
		noDrain   = fs.Bool("no-drain", false, "skip the final /drain so the daemon keeps serving")
		jsonOut   = fs.String("json", "", "write a BENCH JSON document to this file ('-' for stdout)")
		timeout   = fs.Duration("timeout", 0, "overall replay deadline (0 = none)")
		scenName  = fs.String("scenario", "", "compose this scenario's arrival stream before replaying (must match the daemon's -scenario)")
		scenSeed  = fs.Int64("seed", 0, "scenario randomness seed (must match the daemon's -seed)")
		finalOut  = fs.String("final-out", "", "write the drain report as canonical JSON to this file ('-' for stdout)")
		classMix  = fs.String("class-mix", "", `label records with SLO classes before replaying, e.g. "latency=1,standard=8,besteffort=1" (weights; assignment keyed by -seed and record ID)`)
	)
	return run(fs, args, stderr, func() error {
		if *tracePath == "" {
			return errors.New("-trace is required")
		}
		if *finalOut != "" && *noDrain {
			return errors.New("-final-out needs the drain report: drop -no-drain")
		}
		tr, err := trace.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		if *scenName != "" {
			// The daemon's scenario injectors fire server-side; the client's
			// half of the same scenario is the composed arrival stream.
			if tr, err = lava.ComposeScenario(tr, *scenName, *scenSeed); err != nil {
				return err
			}
		}
		if *classMix != "" {
			// Class assignment is a pure function of (seed, record ID), so an
			// offline arm labeling the same trace with the same seed gets the
			// identical classed stream regardless of scenario composition order.
			if tr, err = lava.AssignClasses(tr, *classMix, *scenSeed); err != nil {
				return err
			}
		}

		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		// serve.Client sends through http.DefaultClient. Close the
		// connections it keeps, as a process exit would: one dialed but
		// never used holds up the daemon's graceful shutdown for seconds.
		defer http.DefaultClient.CloseIdleConnections()
		client := &serve.Client{Base: *addr}
		rep, err := client.Replay(ctx, tr, serve.ReplayOptions{
			Concurrency: *conc,
			QPS:         *qps,
			SkipDrain:   *noDrain,
		})
		if err != nil {
			return err
		}
		printReplay(stdout, rep, *conc)
		if *jsonOut != "" {
			if err := writeBench(*jsonOut, stdout, tr, rep, *conc); err != nil {
				return err
			}
		}
		if *finalOut != "" {
			return writeFinal(*finalOut, stdout, rep.Final)
		}
		return nil
	})
}

// printReplay prints the client-side report of a replay and, when it
// drained, the daemon's final aggregates with the per-cell breakdown.
func printReplay(w io.Writer, rep *serve.ReplayReport, workers int) {
	s := rep.Serving
	fmt.Fprintf(w, "replayed %d requests in %.2fs (%.0f req/s, %d workers)\n",
		rep.Requests, rep.Elapsed.Seconds(), s.QPS, workers)
	if rep.Rejected > 0 {
		fmt.Fprintf(w, "rejected: %d placements turned away by admission control (HTTP 429)\n", rep.Rejected)
	}
	fmt.Fprintf(w, "latency: avg %.3fms  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		s.AvgMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	for _, cls := range slo.Classes() {
		if cs, ok := s.PerClass[cls]; ok {
			fmt.Fprintf(w, "  class %-10s p50 %.3fms  p95 %.3fms  p99 %.3fms  (%d reqs)\n",
				cls, cs.P50Ms, cs.P95Ms, cs.P99Ms, cs.Requests)
		}
	}
	ff := rep.Final
	if ff == nil {
		return
	}
	m := ff.Metrics
	fmt.Fprintf(w, "final: pool %s  policy %s  placements %d  exits %d  failed %d\n",
		ff.Pool, ff.Policy, m.Placements, m.Exits, m.Failed)
	fmt.Fprintf(w, "avg empty hosts: %.2f%%  packing density: %.2f%%  cpu util: %.2f%%\n",
		100*m.AvgEmptyHostFrac, 100*m.AvgPackingDensity, 100*m.AvgCPUUtil)
	m.SLO.WriteText(w)
	if len(ff.Cells) > 0 {
		fmt.Fprintf(w, "fleet: %d cells via %s  util spread %.2f%%\n",
			len(ff.Cells), ff.Router, 100*ff.UtilSpread)
	}
	for i, c := range ff.Cells {
		fmt.Fprintf(w, "  cell %d (%d hosts): placements %d  exits %d  failed %d  cpu util %.2f%%\n",
			i, ff.Hosts[i], c.Metrics.Placements, c.Metrics.Exits, c.Metrics.Failed,
			100*c.Metrics.AvgCPUUtil)
	}
}

// writeBench emits the replay as a one-batch BENCH document, to path or,
// for "-", to stdout: the runner's trajectory format with the serving stats
// riding on the fleet-level job result, followed by one row per cell when
// the daemon was federated.
func writeBench(path string, stdout io.Writer, tr *trace.Trace, rep *serve.ReplayReport, workers int) error {
	jr := runner.JobResult{
		Name:       tr.PoolName + "/served",
		ElapsedSec: rep.Elapsed.Seconds(),
		Serving:    rep.Serving,
	}
	results := []runner.JobResult{jr}
	if ff := rep.Final; ff != nil {
		results[0].Pool, results[0].Policy, results[0].Metrics = ff.Pool, ff.Policy, ff.Metrics
		for _, c := range ff.Cells {
			results = append(results, runner.JobResult{
				Name:    c.Pool + "/served",
				Pool:    c.Pool,
				Policy:  c.Policy,
				Metrics: c.Metrics,
			})
		}
	}
	doc := runner.Document{
		ElapsedSec: rep.Elapsed.Seconds(),
		Parallel:   workers,
		Batches: []runner.Summary{
			runner.Summarize("lavaload/"+tr.PoolName, workers, rep.Elapsed.Seconds(), results),
		},
	}
	if path == "-" {
		return runner.WriteJSON(stdout, doc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runner.WriteJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
