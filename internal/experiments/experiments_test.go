package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func tiny() Options { return Options{Scale: 0.08, Seed: 7} }

func runAndRender(t *testing.T, name string, opt Options) (Report, string) {
	t.Helper()
	rep, err := Run(name, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.Name() != name {
		t.Fatalf("report name %q != %q", rep.Name(), name)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", name)
	}
	return rep, buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table1", "table2", "table3", "table4", "theorem1", "scenarios",
		"scale", "slo",
	}
	have := map[string]bool{}
	for _, n := range Names() {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q not registered", w)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(have), len(want), Names())
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestFig1Shape(t *testing.T) {
	rep, _ := runAndRender(t, "fig1", tiny())
	r := rep.(*Fig1Report)
	// Threshold index 1 is 1 hour.
	if r.VMFrac[1] < 0.75 {
		t.Errorf("VMs under 1h = %v, want >= 0.75", r.VMFrac[1])
	}
	if r.ResFrac[1] > 0.15 {
		t.Errorf("core-hours under 1h = %v, want <= 0.15", r.ResFrac[1])
	}
}

func TestFig2ExpectationGrows(t *testing.T) {
	rep, _ := runAndRender(t, "fig2", tiny())
	r := rep.(*Fig2Report)
	// The Fig. 2 phenomenon: expected remaining lifetime after 2 days of
	// uptime exceeds the schedule-time expectation.
	if r.ExpRemain[3] <= r.ExpRemain[0] {
		t.Errorf("E(Tr|2d)=%v not greater than E(Tr|0)=%v", r.ExpRemain[3], r.ExpRemain[0])
	}
}

func TestTable3Renders(t *testing.T) {
	_, out := runAndRender(t, "table3", tiny())
	if !strings.Contains(out, "Admission Policy") {
		t.Error("table3 missing admission policy row")
	}
}

func TestFig8LatencyMicroseconds(t *testing.T) {
	rep, _ := runAndRender(t, "fig8", tiny())
	r := rep.(*Fig8Report)
	if r.MedianUS <= 0 || r.MedianUS > 1000 {
		t.Errorf("median latency = %v us, want low microseconds", r.MedianUS)
	}
}

func TestFig9RepredictionHelps(t *testing.T) {
	rep, _ := runAndRender(t, "fig9", tiny())
	r := rep.(*Fig9Report)
	if len(r.F1) != 20 {
		t.Fatalf("quantiles = %d, want 20", len(r.F1))
	}
	// Late-uptime predictions must beat the schedule-time prediction.
	lateAvg := (r.F1[16] + r.F1[17] + r.F1[18] + r.F1[19]) / 4
	if lateAvg <= r.F1[0] {
		t.Errorf("late F1 %v <= q0 F1 %v; reprediction gain missing", lateAvg, r.F1[0])
	}
	if lateAvg < 0.8 {
		t.Errorf("late F1 = %v, want >= 0.8", lateAvg)
	}
}

func TestFig10DriftDegradesSlowly(t *testing.T) {
	rep, _ := runAndRender(t, "fig10", tiny())
	r := rep.(*Fig10Report)
	if r.F1[0] < 0.5 {
		t.Errorf("week-0 F1 = %v, too low for a fresh model", r.F1[0])
	}
	// Drifted F1 should not collapse to zero.
	last := r.F1[len(r.F1)-1]
	if last < 0.1 {
		t.Errorf("week-8 F1 = %v; drift model broken", last)
	}
}

func TestFig11ImportanceNormalized(t *testing.T) {
	rep, _ := runAndRender(t, "fig11", tiny())
	r := rep.(*Fig11Report)
	sum := 0.0
	for _, v := range r.Importance {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("importance sums to %v", sum)
	}
	// Sorted descending.
	for i := 1; i < len(r.Importance); i++ {
		if r.Importance[i] > r.Importance[i-1] {
			t.Error("importance not sorted")
		}
	}
}

func TestFig12RepredictionSkewsLeft(t *testing.T) {
	rep, _ := runAndRender(t, "fig12", tiny())
	r := rep.(*Fig12Report)
	if r.MeanRepredict >= r.MeanOneShot {
		t.Errorf("reprediction mean error %v >= one-shot %v", r.MeanRepredict, r.MeanOneShot)
	}
}

func TestTable4GBDTBest(t *testing.T) {
	rep, _ := runAndRender(t, "table4", tiny())
	r := rep.(*Table4Report)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	byName := map[string]Table4Row{}
	for _, row := range r.Rows {
		byName[row.Model] = row
	}
	g := byName["gbdt"]
	if g.CIndex < 0.7 {
		t.Errorf("GBDT C-index = %v, want >= 0.7", g.CIndex)
	}
	// GBDT must beat the stratified-KM baseline, as in Table 4.
	if g.BestF1 <= byName["stratified-km"].BestF1 {
		t.Errorf("GBDT F1 %v <= KM F1 %v", g.BestF1, byName["stratified-km"].BestF1)
	}
	if g.MeanAbsErr >= byName["stratified-km"].MeanAbsErr {
		t.Errorf("GBDT |log10 err| %v >= KM %v", g.MeanAbsErr, byName["stratified-km"].MeanAbsErr)
	}
}

func TestFig14SimulatorAccurate(t *testing.T) {
	rep, _ := runAndRender(t, "fig14", tiny())
	r := rep.(*Fig14Report)
	if r.MeanAbsGap > 0.03 {
		t.Errorf("simulator gap = %v, want <= 3%%", r.MeanAbsGap)
	}
}

func TestTheorem1GapGrows(t *testing.T) {
	rep, _ := runAndRender(t, "theorem1", tiny())
	r := rep.(*Theorem1Report)
	// Repredicting must use no more hosts, and the gap must grow with m.
	for i := range r.PoolSizes {
		if r.Gap[i] < 0 {
			t.Errorf("m=%d: repredicting uses more hosts (gap %v)", r.PoolSizes[i], r.Gap[i])
		}
	}
	if r.Gap[len(r.Gap)-1] <= r.Gap[0] {
		t.Errorf("gap does not grow with m: %v", r.Gap)
	}
}

// TestParallelDeterminism is the end-to-end determinism check: a whole
// experiment rendered under 1 worker and under 8 workers must be
// byte-identical, and the batch sink must record every simulation job.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	seq, par := canonicalRun(t, "fig13", 1, false, 0), canonicalRun(t, "fig13", 8, false, 0)
	if seq.text != par.text {
		t.Errorf("fig13 output differs between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seq.text, par.text)
	}
	sums := par.sums
	if len(sums) != 1 || sums[0].Name != "fig13" || sums[0].Jobs != 3 || sums[0].Failed != 0 {
		t.Fatalf("sink summaries = %+v", sums)
	}
	for _, r := range sums[0].Results {
		if r.Metrics == nil || r.Metrics.Placements == 0 {
			t.Errorf("job %s: missing metrics", r.Name)
		}
	}
}

// The heavyweight scheduling studies run at tiny scale just to prove the
// pipelines execute end to end; the real shape checks live in -short=false
// integration tests and the cmd/experiments binary.

func TestFig6Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	// Slightly above tiny scale: 4-pool studies at the minimum pool size
	// are too quantized for the ordering assertions below.
	rep, _ := runAndRender(t, "fig6", Options{Scale: 0.12, Seed: 7})
	r := rep.(*Fig6Report)
	if len(r.Pools) < 4 {
		t.Fatalf("pools = %d", len(r.Pools))
	}
	// The lifetime-aware policies must improve on baseline on average.
	if r.AvgNILAS <= 0 {
		t.Errorf("avg NILAS improvement = %v, want > 0", r.AvgNILAS)
	}
	if r.AvgLAVA <= 0 {
		t.Errorf("avg LAVA improvement = %v, want > 0", r.AvgLAVA)
	}
	if r.AvgNILASOracle <= r.AvgLABinaryOracle {
		t.Errorf("oracle NILAS %v must beat oracle LA %v", r.AvgNILASOracle, r.AvgLABinaryOracle)
	}
}

func TestTable1Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep, _ := runAndRender(t, "table1", tiny())
	r := rep.(*Table1Report)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	pos := 0
	for _, row := range r.Rows {
		if row.DeltaPP > 0 {
			pos++
		}
	}
	if pos < 3 {
		t.Errorf("only %d/5 pilots show positive deltas", pos)
	}
}

func TestTable2Pipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep, _ := runAndRender(t, "table2", tiny())
	r := rep.(*Table2Report)
	for _, row := range r.Rows {
		if row.Baseline == 0 {
			t.Errorf("trace %s: defrag never ran", row.Trace)
		}
		if row.Reduction < 0 {
			t.Errorf("trace %s: LARS increased migrations (%v)", row.Trace, row.Reduction)
		}
	}
}

func TestFig15Fig16Fig17Pipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep15, _ := runAndRender(t, "fig15", tiny())
	r15 := rep15.(*Fig15Report)
	// At perfect accuracy neither policy may hurt the baseline
	// meaningfully (tiny-scale runs are too quantized to demand a strictly
	// positive gain; the Fig. 6 study covers that at scale).
	last := len(r15.Accuracies) - 1
	if r15.NILAS[last] < -0.01 {
		t.Errorf("NILAS at accuracy 1.0 = %v, want >= 0", r15.NILAS[last])
	}

	rep16, _ := runAndRender(t, "fig16", tiny())
	r16 := rep16.(*Fig16Report)
	if len(r16.Rows) != 6 {
		t.Fatalf("fig16 rows = %d", len(r16.Rows))
	}
	// The theoretical optimum must dominate every policy.
	for i := 1; i < len(r16.Empty); i++ {
		if r16.Empty[i] > r16.Empty[0]+0.02 {
			t.Errorf("%s (%v) exceeds theoretical optimum (%v)", r16.Rows[i], r16.Empty[i], r16.Empty[0])
		}
	}
	// Cold start must not lose to warm start (it is the ideal setting).
	if r16.Empty[1] < r16.Empty[2]-0.02 {
		t.Errorf("cold start (%v) worse than warm start (%v)", r16.Empty[1], r16.Empty[2])
	}

	rep17, _ := runAndRender(t, "fig17", tiny())
	r17 := rep17.(*Fig17Report)
	// Caching must reduce model calls without destroying packing quality.
	if r17.ModelCalls[2] >= r17.ModelCalls[0] {
		t.Errorf("15m cache calls %d >= uncached %d", r17.ModelCalls[2], r17.ModelCalls[0])
	}
	if r17.Empty[2] < r17.Empty[0]-0.05 {
		t.Errorf("caching destroyed packing: %v vs %v", r17.Empty[2], r17.Empty[0])
	}
}

// TestScenariosPipeline checks the scenario matrix end to end at tiny scale:
// every catalog scenario, two policy arms, the default 4-cell federation (the
// canonical matrix the golden test pins; TestScenariosParallelDeterminism
// covers a 2-cell one).
func TestScenariosPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	run := canonicalRun(t, "scenarios", 1, false, 0)
	r, out := run.report.(*ScenariosReport), run.text
	if r.Cells != 4 || r.Router != "feature-hash" {
		t.Fatalf("cells/router = %d/%s", r.Cells, r.Router)
	}
	byArm := map[string]*ScenarioRow{}
	scenarios := map[string]bool{}
	for i := range r.Rows {
		row := &r.Rows[i]
		scenarios[row.Scenario] = true
		byArm[row.Scenario+"/"+row.Policy] = row
		if row.Rollup.Placements == 0 {
			t.Errorf("%s/%s placed nothing", row.Scenario, row.Policy)
		}
	}
	if len(scenarios) < 4 {
		t.Fatalf("matrix covered %d scenarios, want >= 4: %s", len(scenarios), out)
	}
	// The failure scenario must actually kill VMs; steady must not.
	if row := byArm["failures/base"]; row == nil || row.Rollup.Killed == 0 {
		t.Error("failures scenario killed no VMs")
	}
	if row := byArm["steady/base"]; row == nil || row.Rollup.Killed != 0 {
		t.Error("steady scenario killed VMs")
	}
	// A surge adds arrivals over steady state.
	if s, b := byArm["surge/base"], byArm["steady/base"]; s != nil && b != nil {
		if s.Rollup.Placements+s.Rollup.Failed <= b.Rollup.Placements+b.Rollup.Failed {
			t.Error("surge scenario did not increase demand")
		}
	}
}

func TestSLOPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep, out := runAndRender(t, "slo", tiny())
	r := rep.(*SLOReport)
	if len(r.Rows) != 4 {
		t.Fatalf("slo matrix has %d rows, want 2 arms x 2 policies:\n%s", len(r.Rows), out)
	}
	byArm := map[string]*SLORow{}
	for i := range r.Rows {
		row := &r.Rows[i]
		byArm[row.Arm+"/"+row.Policy] = row
		s := row.Result.SLO
		if s == nil {
			t.Fatalf("%s/%s carries no SLO summary", row.Arm, row.Policy)
		}
		if s.Fitness <= 0 || s.Fitness > 1 {
			t.Errorf("%s/%s fitness %v out of (0, 1]", row.Arm, row.Policy, s.Fitness)
		}
	}
	// The open arm admits everything: fairness pinned at 1. The tight arm
	// throttles best-effort, so fairness — and with it fitness, packing
	// held roughly equal — must drop.
	for _, pol := range []string{"wastemin", "lava"} {
		open, tight := byArm["open/"+pol], byArm["tight/"+pol]
		if open == nil || tight == nil {
			t.Fatalf("missing arm rows for policy %s:\n%s", pol, out)
		}
		if open.Result.SLO.Fairness != 1 {
			t.Errorf("open/%s fairness = %v, want 1 (no limits)", pol, open.Result.SLO.Fairness)
		}
		be := tight.Result.SLO.Classes["besteffort"]
		if be == nil || be.Rejected == 0 {
			t.Errorf("tight/%s rejected no best-effort traffic", pol)
		}
		if tight.Result.SLO.Fairness >= open.Result.SLO.Fairness {
			t.Errorf("tight/%s fairness %v not below open arm's %v", pol,
				tight.Result.SLO.Fairness, open.Result.SLO.Fairness)
		}
	}
	// Admission precedes placement, so the admit/reject stream is policy-
	// independent within an arm — a structural invariant worth pinning.
	for _, arm := range []string{"open", "tight"} {
		w, l := byArm[arm+"/wastemin"].Result.SLO, byArm[arm+"/lava"].Result.SLO
		for cls, wc := range w.Classes {
			lc := l.Classes[cls]
			if lc == nil || wc.Admitted != lc.Admitted || wc.Rejected != lc.Rejected {
				t.Errorf("%s: class %s admission differs across policies: %+v vs %+v", arm, cls, wc, lc)
			}
		}
	}
}

// TestScenariosParallelDeterminism is the acceptance check behind CI's
// determinism job: the scenario matrix renders byte-identically at 1 and 8
// workers.
func TestScenariosParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	render := func(parallel int) string {
		opt := tiny()
		opt.Cells = 2
		opt.Scenario = "drain-wave"
		opt.Parallel = parallel
		rep, err := Run("scenarios", opt)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return buf.String()
	}
	if seq, par := render(1), render(8); seq != par {
		t.Errorf("scenarios output differs between 1 and 8 workers:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

func TestFig7Panels(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep, _ := runAndRender(t, "fig7", tiny())
	r := rep.(*Fig7Report)
	if r.SwitchIdx <= 0 || r.SwitchIdx >= len(r.Times) {
		t.Fatalf("switch index %d out of range", r.SwitchIdx)
	}
	for i := 0; i < r.SwitchIdx; i++ {
		if r.Cumulative[i] != 0 {
			t.Fatal("cumulative effect nonzero before rollout")
		}
	}
}

func TestFig13MetricsCorrelate(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	r := canonicalRun(t, "fig13", 1, false, 0).report.(*Fig13Report)
	// Sign agreement between empty-hosts and empty-to-free deltas.
	for i := range r.Policies {
		if r.EmptyHosts[i] > 0.01 && r.EmptyToFree[i] < -0.05 {
			t.Errorf("%s: metrics disagree: empty %v vs e2f %v", r.Policies[i], r.EmptyHosts[i], r.EmptyToFree[i])
		}
	}
}
