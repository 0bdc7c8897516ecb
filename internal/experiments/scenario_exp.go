package experiments

import (
	"fmt"
	"io"
	"time"

	"lava/internal/cell"
	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/workload"
)

func init() {
	register("scenarios", runScenarios)
}

// ScenarioRow is one (scenario, policy) arm of the matrix, rolled up across
// the federation's cells.
type ScenarioRow struct {
	Scenario string
	Policy   string
	Rollup   *cell.Rollup
}

// ScenariosReport is the scenario-matrix study: every catalog scenario
// under a lifetime-unaware baseline and LAVA, sharded across a multi-cell
// federation.
type ScenariosReport struct {
	Cells  int
	Router string
	Rows   []ScenarioRow
}

// Name implements Report.
func (r *ScenariosReport) Name() string { return "scenarios" }

// Render implements Report.
func (r *ScenariosReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Scenario matrix — %d cells, %s router (host-weighted rollups)\n", r.Cells, r.Router)
	fmt.Fprintln(w, "scenario     | policy | empty hosts | cpu util | spread  | placed | failed | killed")
	for _, row := range r.Rows {
		ru := row.Rollup
		fmt.Fprintf(w, "%-12s | %-6s | %s | %s | %6.2f%% | %6d | %6d | %6d\n",
			row.Scenario, row.Policy, pct(ru.AvgEmptyHostFrac), pct(ru.AvgCPUUtil),
			100*ru.UtilSpread, ru.Placements, ru.Failed, ru.Killed)
	}
	fmt.Fprintln(w, "spread = max-min per-cell cpu utilization (router balance)")
	fmt.Fprintln(w, "paper: operational events (drains, failures, crunches, bad pushes) are the")
	fmt.Fprintln(w, "       regimes adaptation (§4.3) exists for; LAVA must stay ahead of the")
	fmt.Fprintln(w, "       baseline on empty hosts under every scenario")
}

// runScenarios builds the policy x scenario x cell matrix and fans every
// cell simulation out through the runner. Determinism: the base trace,
// composed traces and shard plans are computed sequentially up front and
// shared read-only; policies and injectors are constructed inside each job.
func runScenarios(opt Options) (Report, error) {
	cells := opt.Cells
	if cells <= 0 {
		cells = 4
	}
	routerKind := opt.Router
	if routerKind == "" {
		routerKind = "feature-hash"
	}

	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}

	// One federation-sized base pool; every scenario composes onto it. The
	// host floor guarantees every cell a sensible minimum share.
	hosts := scaleInt(192, opt.Scale, 48)
	if hosts < 8*cells {
		hosts = 8 * cells
	}
	base, err := workload.Generate(workload.PoolSpec{
		Name:       "fed",
		Zone:       "us-central1-a",
		Hosts:      hosts,
		TargetUtil: 0.65,
		Duration:   scaleDur(7*simtime.Week, opt.Scale, 4*simtime.Day),
		Prefill:    scaleDur(3*simtime.Week, opt.Scale, 8*simtime.Day),
		Seed:       opt.Seed + 5_000_000,
		Diurnal:    0.3,
	})
	if err != nil {
		return nil, err
	}

	var specs []scenario.Spec
	if opt.Scenario != "" {
		spec, err := scenario.ByName(opt.Scenario, base, opt.Seed)
		if err != nil {
			return nil, err
		}
		specs = []scenario.Spec{spec}
	} else {
		specs = scenario.Catalog(base, opt.Seed)
	}

	arms := []string{"base", "lava"}
	plans := make(map[string]*cell.Plan, len(specs))
	var jobs []runner.Job
	for _, spec := range specs {
		spec := spec
		composed, err := spec.ComposeTrace(base)
		if err != nil {
			return nil, err
		}
		plan, err := cell.PlanCells(composed, routerKind, cells)
		if err != nil {
			return nil, err
		}
		plans[spec.Name] = plan
		for _, arm := range arms {
			arm := arm
			for i, tr := range plan.Cells {
				i, tr := i, tr
				jobs = append(jobs, simJob(opt, fmt.Sprintf("%s/%s/cell-%d", spec.Name, arm, i), spec.Seed,
					sim.Config{Trace: tr, Injectors: spec.Injectors(i)},
					func() scheduler.Policy { return scenarioPolicy(arm, spec, pred) }))
			}
		}
	}

	res, err := batch(opt, "scenarios", jobs)
	if err != nil {
		return nil, err
	}

	rep := &ScenariosReport{Cells: cells, Router: routerKind}
	for _, spec := range specs {
		plan := plans[spec.Name]
		for _, arm := range arms {
			results := make([]*sim.Result, len(plan.Cells))
			for i := range plan.Cells {
				results[i] = res[fmt.Sprintf("%s/%s/cell-%d", spec.Name, arm, i)]
			}
			roll, err := cell.RollUp(plan.Router, plan.Hosts, results)
			if err != nil {
				return nil, fmt.Errorf("scenarios: %s/%s: %w", spec.Name, arm, err)
			}
			rep.Rows = append(rep.Rows, ScenarioRow{Scenario: spec.Name, Policy: arm, Rollup: roll})
		}
	}
	return rep, nil
}

// scenarioPolicy constructs one arm's policy for a single cell run. The
// scenario's model events wrap the predictor, so a model-swap scenario
// degrades LAVA's inputs while leaving the unaware baseline untouched.
func scenarioPolicy(arm string, spec scenario.Spec, pred model.Predictor) scheduler.Policy {
	switch arm {
	case "lava":
		return scheduler.NewLAVA(spec.WrapModel(pred), time.Minute)
	default:
		return scheduler.NewWasteMin()
	}
}
