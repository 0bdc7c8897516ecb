// Command lavaload replays a trace against a running lavad placement
// daemon and reports serving performance: achieved throughput plus
// p50/p95/p99 client-observed placement latency, in the same BENCH JSON
// document format the experiment runner emits, so the serving trajectory
// is tracked by the same CI artifacts as packing quality.
//
// Usage:
//
//	lavaload -trace trace.jsonl                              # replay at max speed
//	lavaload -trace trace.jsonl -qps 500 -concurrency 8
//	lavaload -trace trace.jsonl -json BENCH_serving.json     # machine-readable
//	lavaload -trace trace.jsonl -no-drain                    # leave lavad running
//	lavaload -trace trace.jsonl -class-mix "latency=1,standard=8,besteffort=1"
//
// -class-mix labels the replayed records with SLO classes (deterministic in
// -seed and record ID) so a daemon running with -admit can shape traffic per
// class; the report then breaks client latency down per class and counts
// admission rejections (HTTP 429), which are expected shaping, not errors.
//
// Every request carries a sequence number, so the daemon's reorder buffer
// restores exact event order at any -concurrency: the drain report's
// metrics are byte-identical to an offline `lavasim` run of the same trace
// (the parity test in internal/serve asserts this). Against a federated
// daemon (`lavad -cells N`) the same replay drives the whole fleet; the
// drain report then carries the router, the utilization spread, and one
// BENCH row per cell — each byte-identical to offline sharding + per-cell
// simulation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lava"
	"lava/internal/runner"
	"lava/internal/serve"
	"lava/internal/slo"
	"lava/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file to replay (required)")
		addr      = flag.String("addr", "http://127.0.0.1:8080", "lavad base URL")
		qps       = flag.Float64("qps", 0, "request pacing in requests/second (0 = as fast as the daemon accepts)")
		conc      = flag.Int("concurrency", 8, "in-flight request workers")
		noDrain   = flag.Bool("no-drain", false, "skip the final /drain so the daemon keeps serving")
		jsonOut   = flag.String("json", "", "write a BENCH JSON document to this file ('-' for stdout)")
		timeout   = flag.Duration("timeout", 0, "overall replay deadline (0 = none)")
		scenName  = flag.String("scenario", "", "compose this scenario's arrival stream before replaying (must match the daemon's -scenario)")
		scenSeed  = flag.Int64("seed", 0, "scenario randomness seed (must match the daemon's -seed)")
		finalOut  = flag.String("final-out", "", "write the fleet drain report as canonical JSON to this file ('-' for stdout)")
		classMix  = flag.String("class-mix", "", `label records with SLO classes before replaying, e.g. "latency=1,standard=8,besteffort=1" (weights; assignment keyed by -seed and record ID)`)
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
	if *scenName != "" {
		// The daemon's scenario injectors fire server-side; the client's
		// half of the same scenario is the composed arrival stream.
		tr, err = lava.ComposeScenario(tr, *scenName, *scenSeed)
		if err != nil {
			fatal(err)
		}
	}
	if *classMix != "" {
		// Class assignment is a pure function of (seed, record ID), so an
		// offline arm labeling the same trace with the same seed gets the
		// identical classed stream regardless of scenario composition order.
		tr, err = lava.AssignClasses(tr, *classMix, *scenSeed)
		if err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	client := &serve.Client{Base: *addr}
	rep, err := client.Replay(ctx, tr, serve.ReplayOptions{
		Concurrency: *conc,
		QPS:         *qps,
		SkipDrain:   *noDrain,
	})
	if err != nil {
		fatal(err)
	}

	s := rep.Serving
	fmt.Printf("replayed %d requests in %.2fs (%.0f req/s, %d workers)\n",
		rep.Requests, rep.Elapsed.Seconds(), s.QPS, *conc)
	if rep.Rejected > 0 {
		fmt.Printf("rejected: %d placements turned away by admission control (HTTP 429)\n", rep.Rejected)
	}
	fmt.Printf("latency: avg %.3fms  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
		s.AvgMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	for _, cls := range slo.Classes() {
		if cs, ok := s.PerClass[cls]; ok {
			fmt.Printf("  class %-10s p50 %.3fms  p95 %.3fms  p99 %.3fms  (%d reqs)\n",
				cls, cs.P50Ms, cs.P95Ms, cs.P99Ms, cs.Requests)
		}
	}
	if ff := rep.Final; ff != nil {
		m := ff.Metrics
		fmt.Printf("final: pool %s  policy %s  placements %d  exits %d  failed %d\n",
			ff.Pool, ff.Policy, m.Placements, m.Exits, m.Failed)
		fmt.Printf("avg empty hosts: %.2f%%  packing density: %.2f%%  cpu util: %.2f%%\n",
			100*m.AvgEmptyHostFrac, 100*m.AvgPackingDensity, 100*m.AvgCPUUtil)
		m.SLO.WriteText(os.Stdout)
		if len(ff.Cells) > 0 {
			fmt.Printf("fleet: %d cells via %s  util spread %.2f%%\n",
				len(ff.Cells), ff.Router, 100*ff.UtilSpread)
		}
		for i, c := range ff.Cells {
			fmt.Printf("  cell %d (%d hosts): placements %d  exits %d  failed %d  cpu util %.2f%%\n",
				i, ff.Hosts[i], c.Metrics.Placements, c.Metrics.Exits, c.Metrics.Failed,
				100*c.Metrics.AvgCPUUtil)
		}
	}

	if *jsonOut != "" {
		if err := writeBench(*jsonOut, tr, rep, *conc); err != nil {
			fatal(err)
		}
	}
	if *finalOut != "" {
		if rep.Final == nil || len(rep.Final.Cells) == 0 {
			fatal(fmt.Errorf("-final-out needs a fleet drain report: run against a federated daemon without -no-drain"))
		}
		if err := writeFinal(*finalOut, rep.Final); err != nil {
			fatal(err)
		}
	}
}

// writeFinal emits the fleet drain report as canonical JSON — the exact
// bytes an offline `lavasim -final-out` run of the same scenario produces,
// so CI can diff the two files directly.
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

// writeBench emits the replay as a one-batch BENCH document: the runner's
// trajectory format with the serving stats riding on the fleet-level job
// result, followed by one row per cell when the daemon was federated.
func writeBench(path string, tr *trace.Trace, rep *serve.ReplayReport, workers int) error {
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
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return runner.WriteJSON(w, doc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lavaload:", err)
	os.Exit(1)
}
