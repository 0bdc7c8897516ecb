package cli

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"lava/internal/experiments"
	"lava/internal/ptrace"
	"lava/internal/runner"
)

// Experiments runs the experiments command (see cmd/experiments) with args,
// the command line without the program name. A run is not interruptible:
// ctx is accepted so every command shares one shape, and is not read.
func Experiments(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("experiments", stderr)
	var (
		exp        = fs.String("exp", "all", "experiment id ("+strings.Join(experiments.Names(), "|")+") or 'all'")
		scale      = fs.Float64("scale", 0.25, "study scale in (0,1]: 1 = paper-sized (slow)")
		seed       = fs.Int64("seed", 42, "random seed")
		parallel   = fs.Int("parallel", 0, "simulation workers: 1 = sequential, 0 = GOMAXPROCS")
		cells      = fs.Int("cells", 0, "federation width for the scenarios experiment (0 = default 4)")
		scen       = fs.String("scenario", "", "restrict the scenarios experiment to one scenario id (empty = whole catalog)")
		scaleTier  = fs.String("scale-tier", "", "scale experiment tier: full = dual-engine sweep + streamed 250k/1M mega cells (default), smoke = small dual-engine cells only (CI bench-smoke)")
		router     = fs.String("router", "", "cell router for the scenarios experiment: round-robin | least-utilized | feature-hash")
		jsonOut    = fs.String("json", "", "write machine-readable batch results to this file ('-' for stdout)")
		canonical  = fs.Bool("canonical", false, "strip timings/worker counts from -json output so runs at any -parallel diff byte-identically")
		exhaustive = fs.Bool("exhaustive", false, "run policies on the exhaustive scoring engine instead of the incremental score cache (results are byte-identical)")
		progress   = fs.Bool("progress", false, "report batch progress and ETA on stderr")
		traceK     = fs.Int("trace-k", 0, "record per-decision traces with this many scored alternatives in every simulation job but scale's and table2's plan recording (0 = off unless -trace-out is set, then 8)")
		traceOut   = fs.String("trace-out", "", "write all recorded decision streams as one JSON document ('-' for stdout; arms tracing)")
		counter    = fs.String("counterfactual", "", "replay policy A's fig13-fixture trace under policy B, as 'A,B'; runs instead of -exp")
	)
	return run(fs, args, stderr, func() error {
		// withDefaults would run -scale 0 at 0.25, clamp above 1 and let a
		// negative scale fall to every generator's floor.
		if !(*scale > 0 && *scale <= 1) {
			return fmt.Errorf("-scale %v is outside (0, 1]", *scale)
		}
		if *cells < 0 {
			return fmt.Errorf("-cells %d is negative (0 = the default width)", *cells)
		}
		if err := cmp.Or(negative("parallel", *parallel), negative("trace-k", *traceK)); err != nil {
			return err
		}
		names, err := experiments.Select(*exp)
		if err != nil {
			return err
		}
		opt := experiments.Options{
			Scale: *scale, Seed: *seed, Parallel: *parallel,
			Cells: *cells, Scenario: *scen, Router: *router,
			ScaleTier: *scaleTier, Exhaustive: *exhaustive,
		}
		if *traceK > 0 || *traceOut != "" {
			opt.TraceK = *traceK
			if opt.TraceK <= 0 {
				opt.TraceK = ptrace.DefaultK
			}
		}
		if *traceOut != "" {
			opt.Traces = &ptrace.Sink{}
		}
		if *progress {
			opt.Progress = func(p runner.Progress) {
				fmt.Fprintf(stderr, "\r%-24s %d/%d done (%.1fs elapsed, ETA %.1fs)   ",
					p.Name, p.Done, p.Total, p.Elapsed.Seconds(), p.ETA.Seconds())
				if p.Done == p.Total {
					fmt.Fprintln(stderr)
				}
			}
		}
		if *jsonOut != "" {
			opt.Sink = &runner.Sink{}
		}

		if *counter != "" {
			ab := strings.Split(*counter, ",")
			if len(ab) != 2 {
				return fmt.Errorf("-counterfactual wants 'A,B', got %q", *counter)
			}
			rep, err := experiments.Counterfactual(opt, strings.TrimSpace(ab[0]), strings.TrimSpace(ab[1]))
			if err != nil {
				return fmt.Errorf("counterfactual: %w", err)
			}
			rep.Render(stdout)
			return nil
		}

		start := time.Now()
		for _, name := range names {
			expStart := time.Now()
			rep, err := experiments.Run(name, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n", name, time.Since(expStart).Seconds())
			rep.Render(stdout)
			fmt.Fprintln(stdout)
		}

		if opt.Sink != nil {
			doc := runner.Document{
				Scale:      *scale,
				Seed:       *seed,
				Parallel:   runner.Workers(*parallel),
				ElapsedSec: time.Since(start).Seconds(),
				Batches:    opt.Sink.Summaries(),
			}
			if *canonical {
				doc.Canonicalize()
			}
			if err := writeOut(*jsonOut, stdout, func(w io.Writer) error { return runner.WriteJSON(w, doc) }); err != nil {
				return fmt.Errorf("write json: %w", err)
			}
		}
		if opt.Traces != nil {
			if err := writeOut(*traceOut, stdout, opt.Traces.WriteJSON); err != nil {
				return fmt.Errorf("write traces: %w", err)
			}
		}
		return nil
	})
}
