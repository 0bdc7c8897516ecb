package experiments

import (
	"fmt"
	"io"

	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/workload"
)

func init() {
	register("slo", runSLO)
}

// sloMix is the class mix the study labels its workload with: a latency
// tier, a standard bulk, and a best-effort tail.
const sloMix = "latency=2,standard=6,besteffort=2"

// sloArms are the admission arms of the matrix. "open" tracks per-class
// counts with no limits (every class admits everything, Jain fairness 1 by
// construction); "tight" throttles the best-effort tier hard — one token
// every four virtual hours against a class arrival rate well above that at
// every study scale — so fairness drops exactly as far as the shaping
// pushes the per-class admit rates apart.
var sloArms = []struct {
	Name string
	Spec string
}{
	{"open", "track"},
	{"tight", "besteffort=1/4h:2"},
}

// SLORow is one (admission arm, policy) cell of the matrix.
type SLORow struct {
	Arm    string
	Policy string
	Result *sim.Result
}

// SLOReport is the SLO admission study: a classed workload replayed under
// every (admission arm, policy) pair, scored on the multi-objective fitness
// that combines packing quality with cross-class fairness.
type SLOReport struct {
	Mix  string
	Rows []SLORow
}

// Name implements Report.
func (r *SLOReport) Name() string { return "slo" }

// Render implements Report.
func (r *SLOReport) Render(w io.Writer) {
	fmt.Fprintf(w, "SLO admission study — class mix %s\n", r.Mix)
	fmt.Fprintln(w, "arm    | policy   | fairness | fitness | admitted | rejected | empty hosts | packing")
	for _, row := range r.Rows {
		s := row.Result.SLO
		var admitted, rejected int64
		for _, c := range s.Classes {
			admitted += c.Admitted
			rejected += c.Rejected
		}
		fmt.Fprintf(w, "%-6s | %-8s | %8.4f | %7.4f | %8d | %8d | %s | %s\n",
			row.Arm, row.Policy, s.Fairness, s.Fitness, admitted, rejected,
			pct(row.Result.AvgEmptyHostFrac), pct(row.Result.AvgPackingDensity))
		for _, cls := range slo.Classes() {
			if c, ok := s.Classes[cls]; ok && c.Rejected > 0 {
				fmt.Fprintf(w, "       |   class %-10s admitted %d  rejected %d\n", cls, c.Admitted, c.Rejected)
			}
		}
	}
	fmt.Fprintln(w, "fitness = packing x free-pool x fairness (latency term neutral offline);")
	fmt.Fprintln(w, "the open arm pins fairness at 1, so any fitness gap between arms prices")
	fmt.Fprintln(w, "what the tight arm's traffic shaping costs against what its packing buys")
}

// runSLO labels a study pool with SLO classes and replays it under every
// (admission arm, policy) pair. Everything is offline and deterministic:
// class assignment is a pure function of (seed, record ID) and the token
// buckets refill on virtual-time boundaries, so the matrix is reproducible
// at any Parallel setting.
func runSLO(opt Options) (Report, error) {
	base, err := workload.Generate(workload.PoolSpec{
		Name:       "slo-pool",
		Zone:       "us-central1-a",
		Hosts:      scaleInt(96, opt.Scale, 24),
		TargetUtil: 0.7,
		Duration:   scaleDur(2*simtime.Week, opt.Scale, 4*simtime.Day),
		Prefill:    scaleDur(1*simtime.Week, opt.Scale, 4*simtime.Day),
		Seed:       opt.Seed + 7_000_000,
		Diurnal:    0.3,
	})
	if err != nil {
		return nil, err
	}
	mix, err := slo.ParseMix(sloMix)
	if err != nil {
		return nil, err
	}
	classed := slo.AssignClasses(base, mix, opt.Seed)

	pred, err := model.TrainDistTable(classed.Records)
	if err != nil {
		return nil, err
	}
	policies := []struct {
		Name string
		New  func() scheduler.Policy
	}{
		{"wastemin", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, 0) }},
	}

	var jobs []runner.Job
	for _, arm := range sloArms {
		cfg, err := slo.ParseConfig(arm.Spec)
		if err != nil {
			return nil, err
		}
		for _, pol := range policies {
			cfg, pol := cfg, pol
			jobs = append(jobs, runner.Job{
				Name: arm.Name + "/" + pol.Name,
				Seed: opt.Seed,
				Run: func() (*sim.Result, error) {
					return sim.Run(sim.Config{Trace: classed, Policy: opt.policy(pol.New()), SLO: cfg})
				},
			})
		}
	}
	res, err := batch(opt, "slo", jobs)
	if err != nil {
		return nil, err
	}

	rep := &SLOReport{Mix: sloMix}
	for _, arm := range sloArms {
		for _, pol := range policies {
			r := res[arm.Name+"/"+pol.Name]
			if r.SLO == nil {
				return nil, fmt.Errorf("slo: arm %s/%s produced no SLO summary", arm.Name, pol.Name)
			}
			rep.Rows = append(rep.Rows, SLORow{Arm: arm.Name, Policy: pol.Name, Result: r})
		}
	}
	return rep, nil
}
