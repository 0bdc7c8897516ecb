package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"lava"
	"lava/internal/model"
	"lava/internal/trace"
)

// Lavad runs the lavad command (see cmd/lavad) with args, the command line
// without the program name: it serves until ctx is cancelled, then shuts
// down gracefully. It announces the bound address on stderr, as
// "lavad: listening on http://ADDR", once the listener is open.
func Lavad(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("lavad", stderr)
	var (
		tracePath = fs.String("trace", "", "trace file: pool geometry, warm-up/horizon, and model training data (required)")
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		policy    = fs.String("policy", "lava", "wastemin | bestfit | la-binary | nilas | lava")
		modelKind = fs.String("model", "dist", "oracle | gbdt | km | dist (lifetime model for lifetime-aware policies)")
		trees     = fs.Int("trees", 400, "GBDT trees when training in-process")
		refresh   = fs.Duration("cache", time.Minute, "host score cache refresh interval (0 disables)")
		tick      = fs.Duration("tick", 0, "policy tick period (default 5m)")
		sample    = fs.Duration("sample", 0, "metric sampling period (default 1h)")
		queue     = fs.Int("queue", 0, "admission queue depth (default 256)")
		cells     = fs.Int("cells", 1, "serving cells; > 1 federates the pool behind a router")
		router    = fs.String("router", "feature-hash", "fleet router: round-robin | least-utilized | feature-hash")
		traceK    = fs.Int("trace-k", 0, "record decision traces with this many scored alternatives (0 disables; served at /trace)")
		traceBuf  = fs.Int("trace-buf", 0, "decision trace ring capacity (0 = default 8192, -1 = unbounded)")
		traceOut  = fs.String("trace-out", "", "stream recorded decisions to this JSONL file (single-cell only; requires -trace-k)")
		scenName  = fs.String("scenario", "", "serve under a named operational scenario (see lavasim -list-scenarios); forces fleet mode")
		scenSeed  = fs.Int64("seed", 0, "scenario randomness seed (must match the offline arm for parity)")
		admit     = fs.String("admit", "", `SLO admission control, e.g. "latency=100/1m:200,standard=50/1m" (refill/window[:burst] per class) or "track" for accounting without limits`)
	)
	return run(fs, args, stderr, func() error {
		if *tracePath == "" {
			return errors.New("-trace is required")
		}
		tr, err := trace.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		pred, err := model.Train(*modelKind, tr.Records, *trees)
		if err != nil {
			return err
		}
		cfg := lava.FleetConfig{
			ServeConfig: lava.ServeConfig{
				Policy:       lava.PolicyKind(*policy),
				Pred:         pred,
				CacheRefresh: lava.CacheRefreshFlag(*refresh),
				TickEvery:    *tick,
				SampleEvery:  *sample,
				QueueDepth:   *queue,
				TraceK:       *traceK,
				TraceCap:     *traceBuf,
				Admission:    *admit,
			},
			Cells:        *cells,
			Router:       lava.RouterKind(*router),
			Scenario:     *scenName,
			ScenarioSeed: *scenSeed,
		}
		if *traceOut != "" {
			if *traceK <= 0 {
				return errors.New("-trace-out requires -trace-k > 0")
			}
			tf, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer tf.Close()
			cfg.TraceOut = tf
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lavad: pool %s (%d hosts, cells %d, router %s, scenario %q), policy %s, model %s, horizon %v\n",
			tr.PoolName, tr.Hosts, *cells, *router, *scenName, *policy, pred.Name(), tr.End())
		fmt.Fprintf(stderr, "lavad: listening on http://%s\n", ln.Addr())
		// lava.Serve decides single loop versus fleet, from Cells and Scenario,
		// and refuses what a fleet cannot serve (TraceOut).
		if err := lava.Serve(ctx, ln, tr, cfg); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "lavad: shut down")
		return nil
	})
}
