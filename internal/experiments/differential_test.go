package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/workload"
)

// matrixRun is everything the tests read off one run of an experiment at
// tiny(): the report and its rendering, the batch sink's summaries, the
// canonical BENCH JSON — the same document cmd/experiments -canonical -json
// emits, with timings and worker counts stripped — and, with tracing armed,
// the trace document.
type matrixRun struct {
	once   sync.Once
	err    error
	report Report
	text   string
	sums   []runner.Summary
	doc    []byte
	traces []byte
}

// matrixKey names a run by the only options the differential, determinism,
// tracing and golden tests vary.
type matrixKey struct {
	exp        string
	parallel   int
	exhaustive bool
	traceK     int
}

var (
	matrixMu   sync.Mutex
	matrixRuns = map[matrixKey]*matrixRun{}
)

// canonicalRun returns the run for key, executing it on first use only: the
// golden, cached-vs-exhaustive, worker-count and tracing tests all compare
// the same few (fig13 | scenarios) matrices, and every comparison is between
// two distinct keys, so sharing a key's run drops none of them.
func canonicalRun(t *testing.T, exp string, parallel int, exhaustive bool, traceK int) *matrixRun {
	t.Helper()
	key := matrixKey{exp, parallel, exhaustive, traceK}
	matrixMu.Lock()
	r := matrixRuns[key]
	if r == nil {
		r = &matrixRun{}
		matrixRuns[key] = r
	}
	matrixMu.Unlock()
	r.once.Do(func() {
		opt := tiny()
		opt.Parallel = parallel
		opt.Exhaustive = exhaustive
		opt.Sink = &runner.Sink{}
		if traceK > 0 {
			opt.TraceK = traceK
			opt.Traces = &ptrace.Sink{}
		}
		if r.report, r.err = Run(exp, opt); r.err != nil {
			return
		}
		var text, doc, traces bytes.Buffer
		r.report.Render(&text)
		r.text = text.String()
		r.sums = opt.Sink.Summaries()
		d := runner.Document{Scale: opt.Scale, Seed: opt.Seed, Batches: r.sums}
		d.Canonicalize()
		if r.err = runner.WriteJSON(&doc, d); r.err == nil && traceK > 0 {
			r.err = opt.Traces.WriteJSON(&traces)
		}
		r.doc, r.traces = doc.Bytes(), traces.Bytes()
	})
	if r.err != nil {
		t.Fatalf("%s (parallel=%d exhaustive=%v trace-k=%d): %v", exp, parallel, exhaustive, traceK, r.err)
	}
	return r
}

// canonicalDoc is the canonical BENCH JSON of an untraced run.
func canonicalDoc(t *testing.T, exp string, parallel int, exhaustive bool) []byte {
	t.Helper()
	return canonicalRun(t, exp, parallel, exhaustive, 0).doc
}

// TestCachedMatchesExhaustiveMatrices is the experiment-level differential
// gate: on the fig13 and scenarios matrices, the incremental score-cache
// engine must produce canonical JSON byte-identical to the exhaustive
// reference, at 1 and at 8 workers. TestExperimentsCLI in internal/cli
// repeats the fig13 comparison through the command's -exhaustive flag.
func TestCachedMatchesExhaustiveMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, exp := range []string{"fig13", "scenarios"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			ref := canonicalDoc(t, exp, 1, true)
			for _, cfg := range []struct {
				parallel   int
				exhaustive bool
			}{{1, false}, {8, false}, {8, true}} {
				got := canonicalDoc(t, exp, cfg.parallel, cfg.exhaustive)
				if !bytes.Equal(ref, got) {
					t.Errorf("%s: parallel=%d exhaustive=%v diverges from the parallel=1 exhaustive reference:\n--- ref ---\n%s\n--- got ---\n%s",
						exp, cfg.parallel, cfg.exhaustive, ref, got)
				}
			}
		})
	}
}

// TestScalePipeline proves the scale sweep runs end to end at test size and
// that its built-in differential check holds: every row must report the
// cached and exhaustive arms identical, with a sane placement count. The
// cache counters, which canonical documents strip, must be the same at 1
// and at 4 workers.
func TestScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	runScale := func(parallel int) (Report, []runner.Summary) {
		opt := tiny()
		opt.Parallel = parallel
		opt.Sink = &runner.Sink{}
		opt.ScaleTier = ScaleTierSmoke // the dual-engine subset; mega cells are far beyond test size
		rep, err := Run("scale", opt)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return rep, opt.Sink.Summaries()
	}
	rep, sums := runScale(1)
	sr, ok := rep.(*ScaleReport)
	if !ok {
		t.Fatalf("report type %T", rep)
	}
	if len(sr.Rows) == 0 {
		t.Fatal("scale report has no rows")
	}
	for _, row := range sr.Rows {
		if !row.Identical && !row.CachedOnly {
			t.Errorf("h%d/%s: cached and exhaustive arms diverged", row.Hosts, row.Policy)
		}
		if row.Placements == 0 {
			t.Errorf("h%d/%s: no placements measured", row.Hosts, row.Policy)
		}
	}
	if len(sums) != 1 || sums[0].Name != "scale" || sums[0].Failed != 0 {
		t.Fatalf("sink summaries = %+v", sums)
	}
	_, sums4 := runScale(4)
	if len(sums4) != 1 || len(sums4[0].Results) != len(sums[0].Results) {
		t.Fatalf("sink summaries at 4 workers = %+v", sums4)
	}
	for i, r := range sums[0].Results {
		r4 := sums4[0].Results[i]
		if r.Name != r4.Name || (r.Cache == nil) != (r4.Cache == nil) || (r.Cache != nil && *r.Cache != *r4.Cache) {
			t.Errorf("%s: cache counters at 1 and 4 workers differ: %+v vs %s %+v", r.Name, r.Cache, r4.Name, r4.Cache)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("speedup")) || !bytes.Contains(buf.Bytes(), []byte("lazy evals")) {
		t.Fatalf("render missing speedup or cache columns:\n%s", buf.String())
	}
	// Cache counters: on every cached job and no exhaustive one, and gone
	// from the canonical document, which must not tell the engines apart.
	doc := runner.Document{Batches: sums}
	for _, r := range sums[0].Results {
		if cached := strings.HasSuffix(r.Name, "/cached"); cached != (r.Cache != nil) {
			t.Errorf("%s: cache counters present = %v", r.Name, r.Cache != nil)
		}
	}
	doc.Canonicalize()
	for _, r := range doc.Batches[0].Results {
		if r.Cache != nil {
			t.Errorf("%s: cache counters survive Canonicalize", r.Name)
		}
	}
}

// TestCachedMatchesExhaustiveReplayScale is the differential gate on the
// path the repository's benchmark times (bench: replay-scale): a streamed
// (12+3) h fig6-mix trace, shrunk from 10,000 hosts to 1,500 so the
// exhaustive arm stays affordable. The run crosses seven epoch boundaries
// and keeps over a hundred lava-epoch contexts alive, so lazy deep levels,
// stamped rollovers and level-0 rebuilds all decide placements here. The
// engines must agree byte for byte on the canonical metrics, model calls
// included.
func TestCachedMatchesExhaustiveReplayScale(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	spec := workload.PoolSpec{Name: "replay-scale", Zone: "zone-a", Hosts: 1500, TargetUtil: 0.65,
		Prefill: 12 * time.Hour, Duration: 3 * time.Hour, Diurnal: 0.3, Seed: 1}
	pred := model.Oracle{}
	for name, mk := range map[string]func() scheduler.Policy{
		"wastemin": scheduler.NewWasteMin,
		"bestfit":  scheduler.NewBestFit,
		"nilas-epoch": func() scheduler.Policy {
			return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		},
		"lava-epoch": func() scheduler.Policy {
			return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		},
		"lava": func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var docs [2][]byte
			var stats scheduler.CacheStats
			for i, eng := range []scheduler.Engine{scheduler.EngineCached, scheduler.EngineExhaustive} {
				g, err := workload.Stream(spec)
				if err != nil {
					t.Fatal(err)
				}
				pol := scheduler.SetEngine(mk(), eng)
				res, err := sim.Run(sim.Config{Trace: g.Meta(), Source: g, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				if docs[i], err = json.Marshal(runner.MetricsOf(res)); err != nil {
					t.Fatal(err)
				}
				if eng == scheduler.EngineCached {
					stats = scheduler.CacheStatsOf(pol)
				}
			}
			if !bytes.Equal(docs[0], docs[1]) {
				t.Errorf("engines diverge:\n cached:     %s\n exhaustive: %s", docs[0], docs[1])
			}
			if stats.ColdBuilds == 0 || stats.Filtered == 0 {
				t.Errorf("cached arm never used its cache: %+v", stats)
			}
			if name == "lava-epoch" {
				// The workload the tentpole is about: rollovers happen, the
				// context population is the benchmark's, and no rollover
				// costs a rebuild.
				if stats.Contexts <= 100 || stats.Rollovers == 0 || stats.Rebuilds != stats.ColdBuilds {
					t.Errorf("lava-epoch cache counters: %+v", stats)
				}
			}
		})
	}
}

// TestCacheStatsPinned pins the score cache's work counters on the fixture
// of TestCachedMatchesExhaustiveReplayScale. The canonical documents strip
// these columns, so no byte-equality gate sees a filter that reads one
// candidate more or scores one lazily cached value twice; this one does. The
// literals were captured on 63e2087, before the column kernel replaced the
// per-host filter loop, with this test body printing `got`:
//
//	go test ./internal/experiments -run TestCacheStatsPinned -count=1 -v
//
// A change that moves one of them has changed which hosts the cached engine
// touches per decision, not merely how fast it touches them. The blank
// shortcut moved LazyEvals on the static chains and added BlankPicks (a
// decision that opens a host scores no deep level); Filtered still counts
// every member of the winning bucket, so it did not move.
// Bytes (the live footprint of every context, pinned when the byte-coded
// columns landed) moves with the cache's layout instead; CodeResets stays 0
// here, because no column on this workload holds more than 255 distinct
// values.
func TestCacheStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	spec := workload.PoolSpec{Name: "replay-scale", Zone: "zone-a", Hosts: 1500, TargetUtil: 0.65,
		Prefill: 12 * time.Hour, Duration: 3 * time.Hour, Diurnal: 0.3, Seed: 1}
	pred := model.Oracle{}
	for _, tc := range []struct {
		name string
		mk   func() scheduler.Policy
		want scheduler.CacheStats
	}{
		{"wastemin", scheduler.NewWasteMin, scheduler.CacheStats{Contexts: 17, ColdBuilds: 17, Rebuilds: 17, HostsResynced: 63690, LazyEvals: 30605, Filtered: 380734, Bytes: 117496, BlankPicks: 116}},
		{"lava-epoch", func() scheduler.Policy {
			return scheduler.NewLAVAEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		}, scheduler.CacheStats{Contexts: 114, ColdBuilds: 114, Rollovers: 492, Rebuilds: 114, HostsResynced: 98768, LazyEvals: 48782, Filtered: 198596, Bytes: 1130680, BlankPicks: 117}},
		{"nilas-epoch", func() scheduler.Policy {
			return scheduler.NewNILASEpoch(pred, time.Minute, scheduler.DefaultEpoch)
		}, scheduler.CacheStats{Contexts: 95, ColdBuilds: 95, Rollovers: 445, Rebuilds: 540, HostsResynced: 92974, LazyEvals: 116406, Filtered: 8427017, Bytes: 774284, BlankPicks: 117}},
		{"lava", func() scheduler.Policy { return scheduler.NewLAVA(pred, time.Minute) }, scheduler.CacheStats{Contexts: 47, ColdBuilds: 47, Rebuilds: 47, HostsResynced: 77770, LazyEvals: 119117, Filtered: 197358, Bytes: 467776}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			g, err := workload.Stream(spec)
			if err != nil {
				t.Fatal(err)
			}
			pol := tc.mk()
			if _, err := sim.Run(sim.Config{Trace: g.Meta(), Source: g, Policy: pol}); err != nil {
				t.Fatal(err)
			}
			if got := scheduler.CacheStatsOf(pol); got != tc.want {
				t.Errorf("cache counters moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
