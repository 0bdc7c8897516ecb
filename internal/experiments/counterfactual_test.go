package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lava/internal/ptrace"
)

// tracedCanonicalDoc is canonicalDoc with decision tracing armed, plus the
// recorded trace document.
func tracedCanonicalDoc(t *testing.T, exp string, parallel int, exhaustive bool) ([]byte, []byte) {
	t.Helper()
	r := canonicalRun(t, exp, parallel, exhaustive, 3)
	return r.doc, r.traces
}

// TestTracingObserveOnlyAndParallelInvariant is the experiment-level
// tracing gate CI re-runs through the binary: (1) tracing on produces
// canonical BENCH JSON byte-identical to tracing off; (2) the recorded
// trace document is byte-identical at 1 and 8 workers and across scoring
// engines; (3) the scenarios and slo experiments, whose runs carry
// injectors and an SLO gate, trace every job and stay observe-only too.
func TestTracingObserveOnlyAndParallelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	ref := canonicalDoc(t, "fig13", 1, false)
	tracedDoc, traces1 := tracedCanonicalDoc(t, "fig13", 1, false)
	if !bytes.Equal(ref, tracedDoc) {
		t.Errorf("tracing changed canonical results:\n--- untraced ---\n%s\n--- traced ---\n%s", ref, tracedDoc)
	}
	_, traces8 := tracedCanonicalDoc(t, "fig13", 8, false)
	if !bytes.Equal(traces1, traces8) {
		t.Error("trace documents differ between parallel=1 and parallel=8")
	}
	_, tracesEx := tracedCanonicalDoc(t, "fig13", 1, true)
	if !bytes.Equal(traces1, tracesEx) {
		t.Error("trace documents differ between cached and exhaustive engines")
	}

	var doc ptrace.Document
	if err := json.Unmarshal(traces1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.K != 3 || len(doc.Streams) != 3 {
		t.Fatalf("trace document: k=%d streams=%d, want k=3 with 3 fig13 jobs", doc.K, len(doc.Streams))
	}
	for name, s := range doc.Streams {
		if len(s.Decisions) == 0 {
			t.Fatalf("stream %s is empty", name)
		}
	}

	for _, exp := range []string{"scenarios", "slo"} {
		traced := canonicalRun(t, exp, 1, false, 3)
		if !bytes.Equal(canonicalDoc(t, exp, 1, false), traced.doc) {
			t.Errorf("%s: tracing changed canonical results", exp)
		}
		var doc ptrace.Document
		if err := json.Unmarshal(traced.traces, &doc); err != nil {
			t.Fatal(err)
		}
		jobs := 0
		for _, b := range traced.sums {
			jobs += b.Jobs
		}
		if jobs == 0 || len(doc.Streams) != jobs {
			t.Fatalf("%s: %d trace streams for %d jobs, want one per job", exp, len(doc.Streams), jobs)
		}
		for name, s := range doc.Streams {
			if !strings.HasPrefix(name, exp+"/") || len(s.Decisions) == 0 {
				t.Fatalf("%s: stream %s has %d decisions", exp, name, len(s.Decisions))
			}
		}
	}
}

// TestCounterfactualDifferential runs the full -counterfactual pipeline at
// test scale: both parity properties must hold, and the lava-vs-wastemin
// pairing must actually disagree somewhere (a vacuous differential proves
// nothing).
func TestCounterfactualDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	rep, err := Counterfactual(tiny(), "lava", "wastemin")
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := rep.(*CounterfactualReport)
	if !ok {
		t.Fatalf("report type %T", rep)
	}
	if cr.Cross.Decisions == 0 {
		t.Fatal("no decisions replayed")
	}
	if cr.Cross.Matches+len(cr.Cross.Divergences) != cr.Cross.Decisions {
		t.Fatalf("matches %d + divergences %d != decisions %d",
			cr.Cross.Matches, len(cr.Cross.Divergences), cr.Cross.Decisions)
	}
	if len(cr.Cross.Divergences) == 0 {
		t.Fatal("lava and wastemin never diverged — differential is vacuous")
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	for _, want := range []string{"self-replay parity:      PASS", "re-simulation agreement: PASS", "regret"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}

	// The other recorded-policy direction: nilas's stream replayed under
	// lava must pass both parity checks too.
	if _, err := Counterfactual(tiny(), "nilas", "lava"); err != nil {
		t.Fatalf("nilas,lava: %v", err)
	}

	// Unknown policy names fail cleanly.
	if _, err := Counterfactual(tiny(), "nope", "lava"); err == nil {
		t.Fatal("unknown policy A must fail")
	}
	if _, err := Counterfactual(tiny(), "lava", "nope"); err == nil {
		t.Fatal("unknown policy B must fail")
	}
}
