package cli

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"lava/internal/simtime"
	"lava/internal/workload"
)

// Tracegen runs the tracegen command (see cmd/tracegen) with args, the
// command line without the program name. ctx is not read.
func Tracegen(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("tracegen", stderr)
	var (
		out     = fs.String("out", "-", "output file ('-' for stdout)")
		name    = fs.String("name", "pool", "pool name")
		zone    = fs.String("zone", "us-central1-a", "zone feature value")
		hosts   = fs.Int("hosts", 160, "number of hosts")
		util    = fs.Float64("util", 0.65, "target steady-state CPU utilization")
		days    = fs.Int("days", 49, "steady-state days (paper studies use 7 weeks)")
		prefill = fs.Int("prefill", 21, "warm-up days before the measured window")
		seed    = fs.Int64("seed", 1, "random seed")
		diurnal = fs.Float64("diurnal", 0.3, "diurnal arrival modulation amplitude")
		e2      = fs.Bool("e2", false, "use the cost-optimized E2 mix")
	)
	return run(fs, args, stderr, func() error {
		for _, f := range []struct {
			name string
			days int
		}{{"-days", *days}, {"-prefill", *prefill}} {
			if d := int64(f.days); d > math.MaxInt64/int64(simtime.Day) || d < math.MinInt64/int64(simtime.Day) {
				return fmt.Errorf("%s %d overflows a duration", f.name, f.days)
			}
		}
		var mix []workload.TypeSpec
		if *e2 {
			mix = workload.E2Mix()
		}
		tr, err := workload.Generate(workload.PoolSpec{
			Name: *name, Zone: *zone, Hosts: *hosts, TargetUtil: *util,
			Duration: time.Duration(*days) * simtime.Day,
			Prefill:  time.Duration(*prefill) * simtime.Day,
			Seed:     *seed, Diurnal: *diurnal, Mix: mix,
		})
		if err != nil {
			return err
		}
		if err := writeOut(*out, stdout, tr.Write); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d records (%d hosts, warm-up %v, horizon %v)\n",
			len(tr.Records), tr.Hosts, tr.WarmUp, tr.Horizon)
		return nil
	})
}
