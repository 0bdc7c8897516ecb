package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
	"lava/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := percentile(v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median = %v, want 4", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4); the
// expected values here are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1.0, 1.2, 0.9, 1.1, 1.4, 1.0, 0.8})
	if !near(q1, 0.9) || !near(q3, 1.2) {
		t.Errorf("quartiles = %v .. %v, want 0.9 .. 1.2", q1, q3)
	}
	if got := spread([]float64{1.0, 1.2, 0.9, 1.1, 1.4, 1.0, 0.8}); !near(got, 0.3) {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestWorseningAndJudge(t *testing.T) {
	if got := worsening("lower", 100, 110); !near(got, 0.10) {
		t.Errorf("lower-is-better 100 -> 110 worsens by %v, want 0.10", got)
	}
	if got := worsening("higher", 100, 110); !near(got, -0.10) {
		t.Errorf("higher-is-better 100 -> 110 worsens by %v, want -0.10", got)
	}
	lat := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	for _, c := range []struct {
		name       string
		base, cand []float64
		want       string
	}{
		{"unchanged", steady, steady, verdictSame},
		{"slower past the bound", steady, []float64{1.2, 1.21, 1.19, 1.2, 1.22}, verdictRegressed},
		{"slower within the bound", steady, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, verdictSame},
		{"too noisy to tell", noisy, noisy, verdictUnresolved},
		{"noisy but every run better", noisy, []float64{0.5, 0.6, 0.4, 0.55, 0.45}, verdictSame},
	} {
		if got := judge(lat, c.base, c.cand); got != c.want {
			t.Errorf("%s: judged %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}}
	line := func(v string) string {
		return `{"workload":"w","seed":1,"trace":0,"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"events_per_s":{"value":` + v + `,"unit":"1/s"}}}}` + "\n"
	}
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", line("1000")+line("1010")+line("990"))
	slow := write("b.jsonl", line("800")+line("810")+line("790"))
	var buf bytes.Buffer
	if regressed, err := compareFiles(&buf, spec, base, base); err != nil || regressed {
		t.Errorf("a run file against itself: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
	buf.Reset()
	regressed, err := compareFiles(&buf, spec, base, slow)
	if err != nil || !regressed || !strings.Contains(buf.String(), verdictRegressed) {
		t.Errorf("20%% slower: regressed=%v err=%v\n%s", regressed, err, buf.String())
	}
}

func TestSegmentStatsIgnoreOneStall(t *testing.T) {
	// 700 requests at 1 ms; one segment's worth stalls to 50 ms.
	p := &phaseStats{latNS: make([]int64, 700), endNS: make([]int64, 700)}
	for i := range p.latNS {
		p.latNS[i] = int64(time.Millisecond)
		p.endNS[i] = int64(i+1) * int64(time.Millisecond)
	}
	for i := 300; i < 400; i++ {
		p.latNS[i] = int64(50 * time.Millisecond)
	}
	if got := p.latencyMS(0.95); !near(got, 1) {
		t.Errorf("p95 over segments = %v ms, want 1", got)
	}
	if got := p.onTimeShare(); !near(got, 1) {
		t.Errorf("on-time share over segments = %v, want 1", got)
	}
	if got := p.perSecond(); math.Abs(got-1000) > 1e-6 {
		t.Errorf("rate over segments = %v/s, want 1000", got)
	}
}

func TestRoundStatistics(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		for k := 0; k < 8; k++ {
			s := roundSeed(seed, k)
			if s < 0 || seen[s] {
				t.Fatalf("roundSeed(%d, %d) = %d: negative or already used", seed, k, s)
			}
			seen[s] = true
		}
	}
	// Three rounds; the middle one ran beside a noisy neighbour.
	rs := &roundStats{}
	rs.add(roundValues{setupS: 1.0, rates: []float64{100, 104}, onTimeShare: 0.99, placements: 10, emptyFrac: 0.2, peakHeapMB: 5, allocKBPerEv: 2})
	rs.add(roundValues{setupS: 1.6, rates: []float64{60, 70}, onTimeShare: -1, placements: 9, failedPlace: 1, emptyFrac: 0.3, peakHeapMB: 9, allocKBPerEv: 2})
	rs.add(roundValues{setupS: 1.2, rates: []float64{102}, onTimeShare: -1, placements: 10, emptyFrac: 0.4, peakHeapMB: 6, allocKBPerEv: 3})
	out := newOutcome()
	rs.report(out)
	for name, want := range map[string]float64{
		"setup_s":            1.2,
		"events_per_s":       100, // of 60 70 100 102 104
		"ontime_share":       0.99,
		"placed_share":       29.0 / 30,
		"empty_host_frac":    0.3,
		"peak_heap_mb":       6,
		"alloc_kb_per_event": 2,
	} {
		if got := out.values[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// smokeWorkloads are the four workloads at sizes that run in well under a
// second each; seconds scales the serving phases.
func smokeWorkloads() (map[string]func(runConfig) (*outcome, error), float64) {
	gbdtSmall := *replayGBDT
	gbdtSmall.spec.Hosts, gbdtSmall.spec.Prefill, gbdtSmall.spec.Duration = 16, simtime.Day, simtime.Day
	gbdtSmall.train = func(recs []trace.Record) (model.Predictor, error) {
		return model.TrainGBDT(recs, gbdt.Params{Trees: 5})
	}
	scaleSmall := *replayScale
	scaleSmall.spec.Hosts, scaleSmall.spec.Prefill, scaleSmall.spec.Duration = 300, 2*time.Hour, time.Hour
	singleSmall := *serveSingle
	singleSmall.hostsPerCell = 16
	fleetSmall := *serveFleet
	fleetSmall.hostsPerCell = 8
	return map[string]func(runConfig) (*outcome, error){
		gbdtSmall.name:   gbdtSmall.run,
		scaleSmall.name:  scaleSmall.run,
		singleSmall.name: singleSmall.run,
		fleetSmall.name:  fleetSmall.run,
	}, 0.25
}

// TestSmokeAndDeclaredNames runs every workload, untraced and traced, at
// tiny sizes — output checks included — and holds the printed metric names
// against BENCHMARK.json: nothing undeclared is printed (result refuses
// it), every end-to-end name is printed by every workload, and every
// per-layer name is measured by at least one workload.
func TestSmokeAndDeclaredNames(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	runs, seconds := smokeWorkloads()
	if len(spec.Workloads) != len(runs) || len(workloads) != len(runs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		run, ok := runs[w.Name]
		if !ok {
			t.Fatalf("declared workload %q has no runner", w.Name)
		}
		for _, traced := range []bool{false, true} {
			out, err := run(runConfig{seed: 7, seconds: seconds, traced: traced, spanDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.correct {
				t.Errorf("%s traced=%v failed its output checks: %v", w.Name, traced, out.notes)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.Name, traced, out.attempted, out.failed)
			}
			res, err := spec.result(out, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if traced {
				for name := range out.values {
					measured[name] = true
				}
				if res.Metrics["bench.spans_written"].Value < 1 {
					t.Errorf("%s: traced run wrote no spans", w.Name)
				}
				continue
			}
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, name)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %q is declared but no workload measures it", m.Name)
		}
	}
}
