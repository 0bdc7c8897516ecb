package experiments

import (
	"fmt"
	"io"

	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/trace"
)

// Counterfactual is the trace-replay differential behind
// cmd/experiments -counterfactual A,B. It proves, on the fig13 fixture,
// the two parity properties the ptrace package promises:
//
//  1. Self-replay: policy A's recorded decision stream replayed under a
//     fresh instance of A reproduces every decision (zero divergences).
//  2. Re-simulation agreement: a full simulation under B follows A's
//     recorded trajectory exactly up to the counterfactual's first
//     divergence, and places on the divergence's predicted host there.
//
// Violations of either property return an error (so the command exits 1
// and TestCounterfactualDifferential fails), not a report.
func Counterfactual(opt Options, aName, bName string) (Report, error) {
	opt = opt.withDefaults()
	pred, err := trainedModel(opt)
	if err != nil {
		return nil, err
	}
	tr, err := studyTrace(opt, 3, 0.65)
	if err != nil {
		return nil, err
	}
	mkA, err := counterfactualPolicy(aName, pred)
	if err != nil {
		return nil, err
	}
	mkB, err := counterfactualPolicy(bName, pred)
	if err != nil {
		return nil, err
	}

	// Record A's run with an unbounded recorder (replay needs the full
	// stream, creation records included).
	recA, _, err := tracedRun(opt, tr, mkA())
	if err != nil {
		return nil, fmt.Errorf("experiments: counterfactual %s run: %w", aName, err)
	}
	decisions := recA.Decisions()

	replayCfg := func(p scheduler.Policy) ptrace.ReplayConfig {
		return ptrace.ReplayConfig{
			PoolName:  tr.PoolName,
			Hosts:     tr.Hosts,
			HostShape: tr.HostShape(),
			Policy:    p,
		}
	}

	// Property 1: self-replay of A under A is exact.
	self, err := ptrace.Replay(replayCfg(opt.policy(mkA())), decisions)
	if err != nil {
		return nil, fmt.Errorf("experiments: counterfactual self-replay: %w", err)
	}
	if len(self.Divergences) != 0 {
		d := self.Divergences[0]
		return nil, fmt.Errorf("experiments: self-replay parity violated: %s diverged from its own trace at seq %d (vm %d: recorded host %d, replayed %d) — %d divergences total",
			aName, d.Seq, d.VM, d.Recorded, d.Chosen, len(self.Divergences))
	}

	// The counterfactual: A's stream re-priced under B.
	cross, err := ptrace.Replay(replayCfg(opt.policy(mkB())), decisions)
	if err != nil {
		return nil, fmt.Errorf("experiments: counterfactual replay under %s: %w", bName, err)
	}

	// Property 2: a real simulation under B agrees with the counterfactual
	// about where (and how) the trajectories first part ways.
	recB, _, err := tracedRun(opt, tr, mkB())
	if err != nil {
		return nil, fmt.Errorf("experiments: counterfactual %s run: %w", bName, err)
	}
	agreed, err := crossCheck(decisions, recB.Decisions(), cross)
	if err != nil {
		return nil, err
	}

	return &CounterfactualReport{
		A: aName, B: bName,
		PoolName:  tr.PoolName,
		Cross:     cross,
		Agreement: agreed,
	}, nil
}

// tracedRun simulates tr under pol with an unbounded full-stream recorder.
func tracedRun(opt Options, tr *trace.Trace, pol scheduler.Policy) (*ptrace.Recorder, *sim.Result, error) {
	pol = opt.policy(pol)
	rec := ptrace.New(ptrace.Options{K: traceKOr(opt, ptrace.DefaultK), Policy: pol.Name()})
	res, err := sim.Run(sim.Config{Trace: tr, Policy: pol, Tracer: rec})
	return rec, res, err
}

func traceKOr(opt Options, def int) int {
	if opt.TraceK > 0 {
		return opt.TraceK
	}
	return def
}

// placeStream filters a decision stream down to its Place/Fail decisions —
// the per-VM choices, in creation order, shared by any two runs of the same
// trace regardless of policy.
func placeStream(ds []ptrace.Decision) []ptrace.Decision {
	out := make([]ptrace.Decision, 0, len(ds))
	for _, d := range ds {
		if d.Kind == ptrace.KindPlace || d.Kind == ptrace.KindFail {
			out = append(out, d)
		}
	}
	return out
}

// crossCheck compares A's recorded place stream against B's re-simulated
// one and verifies agreement with the counterfactual report: identical up
// to the first divergence, and B's real choice there is the one the
// counterfactual predicted.
func crossCheck(aDec, bDec []ptrace.Decision, cross *ptrace.Report) (int, error) {
	a, b := placeStream(aDec), placeStream(bDec)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	firstDiff := -1
	for i := 0; i < n; i++ {
		if a[i].VM != b[i].VM {
			return 0, fmt.Errorf("experiments: re-simulation decision %d is for vm %d, recorded stream has vm %d — traces differ", i, b[i].VM, a[i].VM)
		}
		if a[i].Host != b[i].Host {
			firstDiff = i
			break
		}
	}
	if len(cross.Divergences) == 0 {
		if firstDiff >= 0 {
			return 0, fmt.Errorf("experiments: counterfactual reported no divergences but re-simulation differs at seq %d (vm %d: %d vs %d)",
				a[firstDiff].Seq, a[firstDiff].VM, a[firstDiff].Host, b[firstDiff].Host)
		}
		if len(a) != len(b) {
			return 0, fmt.Errorf("experiments: divergence-free counterfactual but streams have %d vs %d decisions", len(a), len(b))
		}
		return len(a), nil
	}
	d0 := cross.Divergences[0]
	if firstDiff < 0 {
		return 0, fmt.Errorf("experiments: counterfactual predicts first divergence at seq %d but re-simulation never diverged in the shared prefix", d0.Seq)
	}
	if a[firstDiff].Seq != d0.Seq {
		return 0, fmt.Errorf("experiments: first re-simulation divergence at seq %d, counterfactual predicted seq %d", a[firstDiff].Seq, d0.Seq)
	}
	if b[firstDiff].Host != d0.Chosen {
		return 0, fmt.Errorf("experiments: at seq %d re-simulation chose host %d, counterfactual predicted %d", d0.Seq, b[firstDiff].Host, d0.Chosen)
	}
	return firstDiff, nil
}

// counterfactualAliases are the short CLI spellings -counterfactual accepts
// on top of scheduler.Names().
var counterfactualAliases = map[string]string{"base": "wastemin", "baseline": "wastemin", "la": "la-binary"}

// counterfactualPolicy builds a policy constructor by CLI name.
func counterfactualPolicy(name string, pred model.Predictor) (func() scheduler.Policy, error) {
	if full, ok := counterfactualAliases[name]; ok {
		name = full
	}
	if _, err := scheduler.New(name, pred); err != nil {
		return nil, fmt.Errorf("experiments: counterfactual: %w", err)
	}
	return func() scheduler.Policy {
		pol, _ := scheduler.New(name, pred) // validated above
		return pol
	}, nil
}

// CounterfactualReport renders a counterfactual replay plus the parity
// checks that validate it.
type CounterfactualReport struct {
	A, B      string
	PoolName  string
	Cross     *ptrace.Report
	Agreement int // decisions the re-simulation check covered before (or without) diverging
}

// Name implements Report.
func (r *CounterfactualReport) Name() string { return "counterfactual" }

// Render implements Report.
func (r *CounterfactualReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Counterfactual — %s trace on %s replayed under %s\n", r.A, r.PoolName, r.B)
	fmt.Fprintf(w, "self-replay parity:      PASS (%s reproduces its own %d decisions)\n", r.A, r.Cross.Decisions)
	fmt.Fprintf(w, "re-simulation agreement: PASS (prefix of %d decisions verified)\n", r.Agreement)
	fmt.Fprintf(w, "decisions: %d  matches: %d  divergences: %d  total regret: %.6g\n",
		r.Cross.Decisions, r.Cross.Matches, len(r.Cross.Divergences), r.Cross.TotalRegret)
	for i, d := range r.Cross.Divergences {
		if i == 8 {
			fmt.Fprintf(w, "  ... %d more\n", len(r.Cross.Divergences)-i)
			break
		}
		fmt.Fprintf(w, "  seq %-6d vm %-6d recorded host %-4d -> %s would pick %-4d level %-2d regret %.6g\n",
			d.Seq, d.VM, d.Recorded, r.B, d.Chosen, d.Level, d.Regret)
	}
}
