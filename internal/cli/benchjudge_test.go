package cli

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedSpread draws n per-seed base values around 100 with a ±spread
// seed-to-seed spread, the part of a benchmark's variance a seed causes.
func seedSpread(rng *rand.Rand, n int, spread float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 100 * (1 + spread*(2*rng.Float64()-1))
	}
	return v
}

// scaled returns base scaled by f, each value jittered by up to ±noise.
func scaled(rng *rand.Rand, base []float64, f, noise float64) []float64 {
	v := make([]float64, len(base))
	for i, b := range base {
		v[i] = b * f * (1 + noise*(2*rng.Float64()-1))
	}
	return v
}

// TestJudgePairs holds the judge's verdicts on synthetic pairs: a 2× win
// reads better though the seeds spread the runs by 40 %, an A/A comparison
// reads neither better nor regressed, and a 15 % slowdown reads regressed
// under a 10 % bound, on 3 pairs as on 6, though 3 pairs cannot confirm it
// by a sign test. Under a 25 % bound the slowdown reads same when the seeds
// spread the runs by 5 %, and unresolved when they spread them by 40 %, more
// than the bound: the --compare rule, which the judge is never milder than.
func TestJudgePairs(t *testing.T) {
	higher := benchMetric{Name: "events_per_s", Better: "higher", Bound: 0.25}
	lower := benchMetric{Name: "setup_s", Better: "lower", Bound: 0.10}

	rng := rand.New(rand.NewSource(1))
	base := seedSpread(rng, 10, 0.4)
	if r := judgePairs(higher, base, scaled(rng, base, 2, 0.03)); r.verdict != verdictBetter {
		t.Errorf("2x win: %+v, want better", r)
	}
	if r := judgePairs(lower, base, scaled(rng, base, 0.5, 0.03)); r.verdict != verdictBetter {
		t.Errorf("halved lower-is-better metric: %+v, want better", r)
	}

	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := seedSpread(rng, 10, 0.4)
		for _, m := range []benchMetric{higher, lower} {
			if r := judgePairs(m, base, scaled(rng, base, 1, 0.05)); r.verdict == verdictBetter || r.verdict == verdictRegressed {
				t.Errorf("A/A seed %d %s: %+v, want neither better nor regressed", seed, m.Name, r)
			}
		}
	}

	base = seedSpread(rng, 6, 0.4)
	slow := scaled(rng, base, 1.15, 0.01)
	if r := judgePairs(lower, base, slow); r.verdict != verdictRegressed || r.losses != 6 {
		t.Errorf("15%% slowdown on 6/6 pairs, 10%% bound: %+v, want regressed", r)
	}
	if r := judgePairs(lower, base[:3], slow[:3]); r.verdict != verdictRegressed || r.pWorse <= judgeAlpha {
		t.Errorf("15%% slowdown on 3/3 pairs, 10%% bound: %+v, want regressed with p.worse = 0.125", r)
	}
	within := lower
	within.Bound = 0.25
	if r := judgePairs(within, base, slow); r.verdict != verdictUnresolved {
		t.Errorf("15%% slowdown on 6/6 pairs spread 40%%, 25%% bound: %+v, want unresolved", r)
	}
	narrow := seedSpread(rng, 6, 0.05)
	if r := judgePairs(within, narrow, scaled(rng, narrow, 1.15, 0.01)); r.verdict != verdictSame {
		t.Errorf("15%% slowdown on 6/6 pairs spread 5%%, 25%% bound: %+v, want same", r)
	}
}

func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{{5, 5, 1.0 / 32}, {9, 10, 11.0 / 1024}, {0, 7, 1}, {0, 0, 1}, {3, 6, 42.0 / 64}} {
		if got := signTest(c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
}

// TestQuartiles pins the exclusive method of Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 2}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// writeRuns writes a run file as bench/sweep.sh does: one line per seed of
// workload w, the metric's value from vals, plus a traced line the judge
// must skip.
func writeRuns(t *testing.T, path, w, metric string, vals []float64, correct bool) {
	t.Helper()
	var b strings.Builder
	for i, v := range vals {
		fmt.Fprintf(&b, `{"workload":%q,"seed":%d,"trace":0,"result":{"correct":%v,"attempted":10,"failed":0,"metrics":{%q:{"value":%v,"unit":"s"}}}}`+"\n",
			w, i+1, correct, metric, v)
	}
	fmt.Fprintf(&b, `{"workload":%q,"seed":1,"trace":1,"result":{"correct":true,"metrics":{}}}`+"\n", w)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchjudgeCLI runs the command on run files in a directory holding a
// BENCHMARK.json: a win prints better and exits 0, a regression exits 1,
// and a run that failed its checks or a seed only one side ran is refused.
func TestBenchjudgeCLI(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	spec := `{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}`
	if err := os.WriteFile("BENCHMARK.json", []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []float64{1.00, 1.03, 0.98, 1.02, 0.99, 1.01}
	var faster, slower []float64
	for i, b := range base {
		faster = append(faster, b*(0.5+0.01*float64(i)))
		slower = append(slower, b*(1.2+0.01*float64(i)))
	}
	a, f, s := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "f.jsonl"), filepath.Join(dir, "s.jsonl")
	bad, short := filepath.Join(dir, "bad.jsonl"), filepath.Join(dir, "short.jsonl")
	writeRuns(t, a, "replay-x", "setup_s", base, true)
	writeRuns(t, f, "replay-x", "setup_s", faster, true)
	writeRuns(t, s, "replay-x", "setup_s", slower, true)
	writeRuns(t, bad, "replay-x", "setup_s", faster, false)
	writeRuns(t, short, "replay-x", "setup_s", faster[:5], true)
	for _, c := range []struct {
		args []string
		want int
		out  string
	}{
		{[]string{a, f}, 0, "better"},
		{[]string{a, a}, 0, "same"},
		{[]string{a, s}, 1, "regressed"},
		{[]string{a, bad}, 1, ""},
		{[]string{a, short}, 1, ""},
		{[]string{short, a}, 1, ""},
		{[]string{a}, 1, ""},
	} {
		var stdout, stderr bytes.Buffer
		if got := Benchjudge(context.Background(), c.args, &stdout, &stderr); got != c.want {
			t.Errorf("benchjudge %v: exit %d, want %d; stderr %s", c.args, got, c.want, stderr.String())
		}
		if c.out != "" && (!strings.Contains(stdout.String(), "replay-x      setup_s") || !strings.Contains(stdout.String(), c.out)) {
			t.Errorf("benchjudge %v: output lacks a replay-x setup_s row reading %q:\n%s", c.args, c.out, stdout.String())
		}
	}
}

// stubCheckout makes a checkout whose benchmark command is a stub run.sh:
// it appends "<name> <args>" to log and prints a few lines, then a result
// reading events_per_s = value, correct as given; exit is its exit status.
func stubCheckout(t *testing.T, name, log string, value float64, correct bool, exit int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script := fmt.Sprintf(`echo "%s $*" >>%q
echo building
echo '{"correct":%v,"attempted":10,"failed":0,"metrics":{"events_per_s":{"value":%v,"unit":"1/s"}}}'
exit %d
`, name, log, correct, value, exit)
	if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBenchjudgePairDriver runs the pair driver against stub checkouts: it
// runs every (seed, workload) once per side with the benchmark's command,
// untraced and at run_seconds, base first on the first seed and head first on
// the second, writes the two run files as bench/sweep.sh does and judges
// them; it refuses a run that exits non-zero or says it is not correct,
// a run file that exists, and a workload BENCHMARK.json does not declare.
func TestBenchjudgePairDriver(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	spec := `{"command":["bash","bench/run.sh"],"run_seconds":22,"workloads":[{"name":"w1"},{"name":"w2"}],
"end_to_end":[{"name":"events_per_s","unit":"1/s","better":"higher","bound":0.25}]}`
	if err := os.WriteFile("BENCHMARK.json", []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "log")
	base := stubCheckout(t, "base", log, 100, true, 0)
	head := stubCheckout(t, "head", log, 200, true, 0)
	wrong := stubCheckout(t, "wrong", log, 200, false, 0)
	failing := stubCheckout(t, "failing", log, 200, true, 3)
	out := func(name string) string { return filepath.Join(dir, name) }

	var stdout, stderr bytes.Buffer
	args := []string{"-base", base, "-head", head, "-seeds", "7-8", out("b.jsonl"), out("h.jsonl")}
	if got := Benchjudge(context.Background(), args, &stdout, &stderr); got != 0 {
		t.Fatalf("pair driver: exit %d; stderr %s", got, stderr.String())
	}
	ran, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, run := range []string{"base w1 7", "head w1 7", "base w2 7", "head w2 7", "head w1 8", "base w1 8", "head w2 8", "base w2 8"} {
		f := strings.Fields(run)
		want += fmt.Sprintf("%s --workload %s --seed %s --trace 0 --seconds 22\n", f[0], f[1], f[2])
	}
	if string(ran) != want {
		t.Fatalf("runs:\n%s\nwant:\n%s", ran, want)
	}
	if strings.Count(stdout.String(), "events_per_s        higher     2         100         200    2.0000    2/2") != 2 {
		t.Fatalf("judged:\n%s", stdout.String())
	}
	b, err := os.ReadFile(out("b.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if line := strings.SplitN(string(b), "\n", 2)[0]; line != `{"workload":"w1","seed":7,"trace":0,"result":{"correct":true,"attempted":10,"failed":0,"metrics":{"events_per_s":{"value":100,"unit":"1/s"}}}}` {
		t.Fatalf("first base line: %s", line)
	}

	for _, c := range []struct {
		args []string
		why  string
	}{
		{[]string{"-base", base, "-head", wrong, "-seeds", "1", out("b2.jsonl"), out("h2.jsonl")}, "correct"},
		{[]string{"-base", base, "-head", failing, "-seeds", "1", out("b3.jsonl"), out("h3.jsonl")}, "exit status 3"},
		{[]string{"-base", base, "-head", head, "-seeds", "1", out("b.jsonl"), out("h4.jsonl")}, "exists"},
		{[]string{"-base", base, "-head", head, "-seeds", "1", "-workloads", "w3", out("b5.jsonl"), out("h5.jsonl")}, "w3"},
		{[]string{"-base", base, "-head", head, "-seeds", "2-1", out("b6.jsonl"), out("h6.jsonl")}, "-seeds"},
		{[]string{"-base", base, out("b7.jsonl"), out("h7.jsonl")}, "together"},
	} {
		stderr.Reset()
		if got := Benchjudge(context.Background(), c.args, io.Discard, &stderr); got != 1 || !strings.Contains(stderr.String(), c.why) {
			t.Errorf("benchjudge %v: exit %d, want 1 naming %q; stderr %s", c.args, got, c.why, stderr.String())
		}
	}
}
