package experiments

import (
	"fmt"
	"io"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
)

func init() {
	register("fig6", runFig6)
	register("fig13", runFig13)
	register("fig15", runFig15)
	register("fig16", runFig16)
	register("fig17", runFig17)
}

// --- Fig. 6: the headline study ------------------------------------------------

// Fig6Pool is one pool's empty-host improvements over the baseline.
type Fig6Pool struct {
	Pool        string
	Baseline    float64 // baseline empty-host fraction
	LABinary    float64 // improvements in fractions (pp/100)
	NILAS       float64
	LAVA        float64
	NILASOracle float64
	LAOracle    float64
}

// Fig6Report reproduces the 24-pool empty-host study.
type Fig6Report struct {
	Pools []Fig6Pool
	// Averages across pools, in percentage points / 100.
	AvgLABinary, AvgNILAS, AvgLAVA    float64
	AvgNILASOracle, AvgLABinaryOracle float64
}

// Name implements Report.
func (r *Fig6Report) Name() string { return "fig6" }

// Render implements Report.
func (r *Fig6Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 6 — Empty-host improvement over baseline per pool")
	fmt.Fprintln(w, "pool      | baseline | LA-Binary | NILAS    | LAVA     | LA(orac) | NILAS(orac)")
	for _, p := range r.Pools {
		fmt.Fprintf(w, "%-9s | %s | %s | %s | %s | %s | %s\n",
			p.Pool, pct(p.Baseline), pp(p.LABinary), pp(p.NILAS), pp(p.LAVA), pp(p.LAOracle), pp(p.NILASOracle))
	}
	fmt.Fprintf(w, "average   |          | %s | %s | %s | %s | %s\n",
		pp(r.AvgLABinary), pp(r.AvgNILAS), pp(r.AvgLAVA), pp(r.AvgLABinaryOracle), pp(r.AvgNILASOracle))
	fmt.Fprintln(w, "paper: LAVA +6.5 pp, NILAS +6.1 pp, LA-Binary +5.0 pp (model);")
	fmt.Fprintln(w, "       oracle NILAS +9.5 pp vs oracle LA +7.5 pp")
}

// policyArm names one policy construction in a study matrix.
type policyArm struct {
	name string
	mk   func() scheduler.Policy
}

// fig6Policies are the per-pool simulation arms of the headline study.
func fig6Policies(pred model.Predictor) []policyArm {
	return []policyArm{
		{"base", func() scheduler.Policy { return scheduler.NewWasteMin() }},
		{"la", func() scheduler.Policy { return scheduler.NewLABinary(pred) }},
		{"nilas", func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) }},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }},
		{"laO", func() scheduler.Policy { return scheduler.NewLABinary(model.Oracle{}) }},
		{"nilasO", func() scheduler.Policy { return scheduler.NewNILAS(model.Oracle{}, time.Minute) }},
	}
}

func runFig6(opt Options) (Report, error) {
	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}
	nPools := scaleInt(24, opt.Scale, 4)
	utils := []float64{0.55, 0.65, 0.75}

	// Stage 1: generate the pool traces concurrently (each is seeded by its
	// pool index, so generation order is irrelevant).
	traces := make([]*trace.Trace, nPools)
	gen := make([]func() error, nPools)
	for i := range traces {
		i := i
		gen[i] = func() error {
			tr, err := studyTrace(opt, i, utils[i%len(utils)])
			traces[i] = tr
			return err
		}
	}
	if err := parDo(opt, gen...); err != nil {
		return nil, err
	}

	// Stage 2: fan the full pool x policy matrix out across the runner.
	arms := fig6Policies(pred)
	var jobs []runner.Job
	for i, tr := range traces {
		for _, arm := range arms {
			jobs = append(jobs, simJob(opt, tr.PoolName+"/"+arm.name, opt.Seed+int64(1000*i), sim.Config{Trace: tr}, arm.mk))
		}
	}
	res, err := batch(opt, "fig6", jobs)
	if err != nil {
		return nil, err
	}

	rep := &Fig6Report{}
	for _, tr := range traces {
		get := func(arm string) float64 { return res[tr.PoolName+"/"+arm].AvgEmptyHostFrac }
		base := get("base")
		p := Fig6Pool{
			Pool:        tr.PoolName,
			Baseline:    base,
			LABinary:    get("la") - base,
			NILAS:       get("nilas") - base,
			LAVA:        get("lava") - base,
			LAOracle:    get("laO") - base,
			NILASOracle: get("nilasO") - base,
		}
		rep.Pools = append(rep.Pools, p)
		rep.AvgLABinary += p.LABinary
		rep.AvgNILAS += p.NILAS
		rep.AvgLAVA += p.LAVA
		rep.AvgLABinaryOracle += p.LAOracle
		rep.AvgNILASOracle += p.NILASOracle
	}
	n := float64(len(rep.Pools))
	rep.AvgLABinary /= n
	rep.AvgNILAS /= n
	rep.AvgLAVA /= n
	rep.AvgLABinaryOracle /= n
	rep.AvgNILASOracle /= n
	return rep, nil
}

// --- Fig. 13: metric equivalence -------------------------------------------------

// Fig13Report shows the three bin-packing metrics move together (Appendix D).
type Fig13Report struct {
	Policies       []string
	EmptyHosts     []float64 // deltas vs LA-Binary
	EmptyToFree    []float64
	PackingDensity []float64
}

// Name implements Report.
func (r *Fig13Report) Name() string { return "fig13" }

// Render implements Report.
func (r *Fig13Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 13 — Relative improvements vs LA-Binary across metrics")
	fmt.Fprintln(w, "policy   | empty hosts | empty-to-free | packing density")
	for i, p := range r.Policies {
		fmt.Fprintf(w, "%-8s | %s | %s | %s\n",
			p, pp(r.EmptyHosts[i]), pp(r.EmptyToFree[i]), pp(r.PackingDensity[i]))
	}
	fmt.Fprintln(w, "paper: the three metrics are correlated; improving one improves the others")
}

func runFig13(opt Options) (Report, error) {
	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}
	tr, err := studyTrace(opt, 3, 0.65)
	if err != nil {
		return nil, err
	}
	res, err := batch(opt, "fig13", []runner.Job{
		simJob(opt, "la", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewLABinary(pred) }),
		simJob(opt, "nilas", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) }),
		simJob(opt, "lava", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }),
	})
	if err != nil {
		return nil, err
	}
	la := res["la"]
	rep := &Fig13Report{}
	for _, name := range []string{"nilas", "lava"} {
		r := res[name]
		rep.Policies = append(rep.Policies, name)
		rep.EmptyHosts = append(rep.EmptyHosts, r.AvgEmptyHostFrac-la.AvgEmptyHostFrac)
		rep.EmptyToFree = append(rep.EmptyToFree, r.AvgEmptyToFree-la.AvgEmptyToFree)
		rep.PackingDensity = append(rep.PackingDensity, r.AvgPackingDensity-la.AvgPackingDensity)
	}
	return rep, nil
}

// --- Fig. 15: accuracy sweep ---------------------------------------------------------

// Fig15Report sweeps prediction accuracy with the noisy oracle (App. G.1).
type Fig15Report struct {
	Accuracies []float64
	NILAS      []float64 // improvement over baseline at each accuracy
	LAVA       []float64
}

// Name implements Report.
func (r *Fig15Report) Name() string { return "fig15" }

// Render implements Report.
func (r *Fig15Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 15 — Empty-host improvement vs prediction accuracy")
	fmt.Fprintln(w, "accuracy | NILAS    | LAVA")
	for i, a := range r.Accuracies {
		fmt.Fprintf(w, "%7.2f  | %s | %s\n", a, pp(r.NILAS[i]), pp(r.LAVA[i]))
	}
	fmt.Fprintln(w, "paper: improvements persist across accuracies; LAVA tolerates low accuracy better")
}

func runFig15(opt Options) (Report, error) {
	tr, err := studyTrace(opt, 5, 0.65)
	if err != nil {
		return nil, err
	}
	accs := []float64{0.5, 0.7, 0.9, 1.0}
	jobs := []runner.Job{
		simJob(opt, "base", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewWasteMin() }),
	}
	for _, acc := range accs {
		noisy := &model.NoisyOracle{Accuracy: acc, Seed: opt.Seed}
		jobs = append(jobs,
			simJob(opt, fmt.Sprintf("nilas@%.2f", acc), opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewNILAS(noisy, time.Minute) }),
			simJob(opt, fmt.Sprintf("lava@%.2f", acc), opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewLAVA(noisy, time.Minute) }),
		)
	}
	res, err := batch(opt, "fig15", jobs)
	if err != nil {
		return nil, err
	}
	base := res["base"]
	rep := &Fig15Report{}
	for _, acc := range accs {
		rep.Accuracies = append(rep.Accuracies, acc)
		rep.NILAS = append(rep.NILAS, res[fmt.Sprintf("nilas@%.2f", acc)].AvgEmptyHostFrac-base.AvgEmptyHostFrac)
		rep.LAVA = append(rep.LAVA, res[fmt.Sprintf("lava@%.2f", acc)].AvgEmptyHostFrac-base.AvgEmptyHostFrac)
	}
	return rep, nil
}

// --- Fig. 16: ablations & theoretical limit ---------------------------------------------

// Fig16Report compares NILAS variants against the packing upper bound
// (Appendix G.2).
type Fig16Report struct {
	Rows  []string
	Empty []float64
}

// Name implements Report.
func (r *Fig16Report) Name() string { return "fig16" }

// Render implements Report.
func (r *Fig16Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 16 — NILAS ablations vs theoretical limit (avg empty-host fraction)")
	for i, row := range r.Rows {
		fmt.Fprintf(w, "%-34s %s\n", row, pct(r.Empty[i]))
	}
	fmt.Fprintln(w, "paper: ideal NILAS (oracle, cold start) is near-optimal; no-reprediction is much worse")
}

// frozenPredictor disables repredictions: it predicts once per VM and then
// only subtracts elapsed time — the Fig. 16 "no reprediction" ablation.
type frozenPredictor struct {
	inner model.Predictor
}

func (f frozenPredictor) Name() string { return f.inner.Name() + "-frozen" }

func (f frozenPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	if vm.InitialPrediction == 0 {
		vm.InitialPrediction = f.inner.PredictRemaining(vm, 0)
	}
	return simtime.FloorRemaining(vm.InitialPrediction-uptime, uptime)
}

func runFig16(opt Options) (Report, error) {
	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}
	tr, err := studyTrace(opt, 7, 0.65)
	if err != nil {
		return nil, err
	}

	// Warm start: the prefill window is placed by the lifetime-unaware
	// baseline; NILAS takes over at the measurement boundary, inheriting
	// residual placements (the production rollout situation, Appendix F).
	warmStart := func(mk func() scheduler.Policy) func() scheduler.Policy {
		return func() scheduler.Policy {
			return scheduler.NewSwitched(scheduler.NewWasteMin(), mk(), tr.WarmUp)
		}
	}
	res, err := batch(opt, "fig16", []runner.Job{
		simJob(opt, "base", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewWasteMin() }),
		// Ideal: oracle predictions with NILAS active from the first VM of
		// the trace (cold start — no residue of lifetime-unaware
		// placements).
		simJob(opt, "cold", opt.Seed, sim.Config{Trace: tr}, func() scheduler.Policy { return scheduler.NewNILAS(model.Oracle{}, time.Minute) }),
		simJob(opt, "warmO", opt.Seed, sim.Config{Trace: tr}, warmStart(func() scheduler.Policy { return scheduler.NewNILAS(model.Oracle{}, time.Minute) })),
		simJob(opt, "warmM", opt.Seed, sim.Config{Trace: tr}, warmStart(func() scheduler.Policy { return scheduler.NewNILAS(pred, time.Minute) })),
		simJob(opt, "frozen", opt.Seed, sim.Config{Trace: tr}, warmStart(func() scheduler.Policy { return scheduler.NewNILAS(frozenPredictor{inner: pred}, time.Minute) })),
	})
	if err != nil {
		return nil, err
	}

	rep := &Fig16Report{}
	add := func(name string, v float64) {
		rep.Rows = append(rep.Rows, name)
		rep.Empty = append(rep.Empty, v)
	}

	// Theoretical optimum: all load packed with zero waste; empty hosts =
	// unused capacity (the lower of CPU/memory headroom), averaged over the
	// steady window.
	optRes := res["base"]
	steady := optRes.Series.After(tr.WarmUp)
	var optEmpty float64
	for _, s := range steady.Samples {
		util := s.CPUUtil
		if s.MemUtil > util {
			util = s.MemUtil
		}
		optEmpty += 1 - util
	}
	if steady.Len() > 0 {
		optEmpty /= float64(steady.Len())
	}
	add("theoretical optimum", optEmpty)
	add("NILAS oracle, cold start", res["cold"].AvgEmptyHostFrac)
	add("NILAS oracle, warm start", res["warmO"].AvgEmptyHostFrac)
	add("NILAS model, warm start", res["warmM"].AvgEmptyHostFrac)
	add("NILAS model, no repredictions", res["frozen"].AvgEmptyHostFrac)
	add("baseline (waste-min)", optRes.AvgEmptyHostFrac)
	return rep, nil
}

// --- Fig. 17: prediction caching ---------------------------------------------------------

// Fig17Report is the score-cache ablation (Appendix G.3).
type Fig17Report struct {
	Intervals  []time.Duration
	Empty      []float64
	ModelCalls []int64
}

// Name implements Report.
func (r *Fig17Report) Name() string { return "fig17" }

// Render implements Report.
func (r *Fig17Report) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 17 — Effect of caching predictions (NILAS)")
	fmt.Fprintln(w, "refresh    | empty hosts | model calls")
	for i, iv := range r.Intervals {
		name := "none"
		if iv > 0 {
			name = iv.String()
		}
		fmt.Fprintf(w, "%-10s | %s | %d\n", name, pct(r.Empty[i]), r.ModelCalls[i])
	}
	fmt.Fprintln(w, "paper: caching at 1-15 min intervals does not hurt packing quality")
}

func runFig17(opt Options) (Report, error) {
	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}
	tr, err := studyTrace(opt, 9, 0.65)
	if err != nil {
		return nil, err
	}
	ivs := []time.Duration{0, time.Minute, 15 * time.Minute}
	var jobs []runner.Job
	for _, iv := range ivs {
		iv := iv
		jobs = append(jobs, simJob(opt, iv.String(), opt.Seed, sim.Config{Trace: tr},
			func() scheduler.Policy { return scheduler.NewNILAS(pred, iv) }))
	}
	res, err := batch(opt, "fig17", jobs)
	if err != nil {
		return nil, err
	}
	rep := &Fig17Report{}
	for _, iv := range ivs {
		r := res[iv.String()]
		rep.Intervals = append(rep.Intervals, iv)
		rep.Empty = append(rep.Empty, r.AvgEmptyHostFrac)
		rep.ModelCalls = append(rep.ModelCalls, r.ModelCalls)
	}
	return rep, nil
}
