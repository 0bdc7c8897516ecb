package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Verdicts of one (workload, metric) row of Benchjudge.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judgeAlpha is the one-sided sign test's significance level: 5 wins of 5
// pairs (p = 0.031) or 9 of 10 (p = 0.011) pass it.
const judgeAlpha = 0.05

// benchMetric is one end-to-end metric of BENCHMARK.json: which way is
// better, and by what share it may worsen before a change regresses it.
type benchMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runKey names one benchmark run: the workload and the seed it ran under.
type runKey struct {
	workload string
	seed     int64
}

// judgedRow is the verdict on one (workload, metric) over the paired seeds.
type judgedRow struct {
	workload        string
	metric          benchMetric
	pairs           int
	baseMed         float64
	headMed         float64
	ratio           float64 // median per-pair head/base
	wins, losses    int     // pairs where head reads better, worse
	pBetter, pWorse float64 // exact one-sided sign tests
	verdict         string
}

// Benchjudge is the body of cmd/benchjudge: it judges a change against its
// parent from two run files of the repository benchmark, as bench/sweep.sh
// writes them (base first), with each end-to-end metric's direction and
// bound read from BENCHMARK.json in the working directory. It pairs the
// untraced runs of the two files by (workload, seed) and prints one row per
// workload and metric, exiting 1 when any row regressed or a (workload,
// seed) has no partner.
func Benchjudge(_ context.Context, args []string, stdout, stderr io.Writer) int {
	flags := newFlagSet("benchjudge", stderr)
	return run(flags, args, stderr, func() error {
		if flags.NArg() != 2 {
			return errors.New("want two run files, base then head")
		}
		metrics, err := readEndToEnd("BENCHMARK.json")
		if err != nil {
			return err
		}
		base, err := readRunFile(flags.Arg(0))
		if err != nil {
			return err
		}
		head, err := readRunFile(flags.Arg(1))
		if err != nil {
			return err
		}
		rows, err := judgeRuns(metrics, base, head)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-13s %-19s %-6s %5s %11s %11s %9s %6s %8s %8s %6s  %s\n",
			"workload", "metric", "better", "pairs", "base.median", "head.median", "head/base", "wins", "p.better", "p.worse", "bound", "verdict")
		regressed := 0
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-13s %-19s %-6s %5d %11.5g %11.5g %9.4f %6s %8.4f %8.4f %5.1f%%  %s\n",
				r.workload, r.metric.Name, r.metric.Better, r.pairs, r.baseMed, r.headMed, r.ratio,
				fmt.Sprintf("%d/%d", r.wins, r.pairs), r.pBetter, r.pWorse, 100*r.metric.Bound, r.verdict)
			if r.verdict == verdictRegressed {
				regressed++
			}
		}
		if regressed > 0 {
			return fmt.Errorf("%d of %d rows regressed", regressed, len(rows))
		}
		return nil
	})
}

// readEndToEnd reads the end-to-end metrics of a BENCHMARK.json.
func readEndToEnd(path string) ([]benchMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return spec.EndToEnd, nil
}

// readRunFile loads the untraced runs of a run file, each line one run as
// bench/sweep.sh writes it, as metric values by (workload, seed). A run that
// failed its output checks, or a second run of one (workload, seed), is an
// error: neither can be paired.
func readRunFile(path string) (map[runKey]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[runKey]map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Trace    int    `json:"trace"`
			Result   struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			} `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		k := runKey{r.Workload, r.Seed}
		switch {
		case !r.Result.Correct:
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its output checks", path, line, r.Workload, r.Seed)
		case runs[k] != nil:
			return nil, fmt.Errorf("%s:%d: a second run of %s seed %d", path, line, r.Workload, r.Seed)
		}
		runs[k] = make(map[string]float64, len(r.Result.Metrics))
		for name, m := range r.Result.Metrics {
			runs[k][name] = m.Value
		}
	}
	return runs, sc.Err()
}

// judgeRuns pairs base and head runs by (workload, seed) and judges every
// end-to-end metric of every workload, workloads in name order. A (workload,
// seed) that only one side ran is an error: a head missing a workload, or
// one seed's runs, must not pass for a head that kept up.
func judgeRuns(metrics []benchMetric, base, head map[runKey]map[string]float64) ([]judgedRow, error) {
	seeds := map[string][]int64{}
	for k := range base {
		if head[k] == nil {
			return nil, fmt.Errorf("%s seed %d: base ran it, head did not", k.workload, k.seed)
		}
		seeds[k.workload] = append(seeds[k.workload], k.seed)
	}
	for k := range head {
		if base[k] == nil {
			return nil, fmt.Errorf("%s seed %d: head ran it, base did not", k.workload, k.seed)
		}
	}
	if len(seeds) == 0 {
		return nil, errors.New("no untraced runs to pair")
	}
	workloads := make([]string, 0, len(seeds))
	for w := range seeds {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var rows []judgedRow
	for _, w := range workloads {
		slices.Sort(seeds[w])
		for _, m := range metrics {
			var b, h []float64
			for _, s := range seeds[w] {
				k := runKey{w, s}
				bv, bok := base[k][m.Name]
				hv, hok := head[k][m.Name]
				if !bok || !hok {
					return nil, fmt.Errorf("%s seed %d: %s missing on one side", w, s, m.Name)
				}
				b, h = append(b, bv), append(h, hv)
			}
			r := judgePairs(m, b, h)
			r.workload = w
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// judgePairs judges one metric on paired runs, base[i] against head[i],
// ties counting for neither side. It never calls a row milder than
// bench/run.sh --compare calls the same runs unpaired: it keeps that judge's
// regressed and unresolved rules and adds the paired ones.
//
//   - regressed: head's median is worse than base's by more than the bound
//     (the --compare rule), or the median pair worsens by more than it.
//   - better: head reads better on at least nine tenths of the pairs, an
//     exact one-sided sign test confirms it, and head's median beats base's
//     by more than base's interquartile range (the rule a claimed gain must
//     meet).
//   - unresolved: either side's run-to-run spread exceeds the bound, and
//     not every head run reads better than every base run (the --compare
//     rule).
//   - same: otherwise.
func judgePairs(m benchMetric, base, head []float64) judgedRow {
	n := len(base)
	r := judgedRow{metric: m, pairs: n, baseMed: median(base), headMed: median(head)}
	ratios := make([]float64, n)
	worse := make([]float64, n) // per pair, head's worsening as a share of base
	for i := range base {
		ratios[i] = head[i] / base[i]
		worse[i] = worsening(m.Better, base[i], head[i])
		switch {
		case worse[i] < 0:
			r.wins++
		case worse[i] > 0:
			r.losses++
		}
	}
	r.ratio = median(ratios)
	r.pBetter = signTest(r.wins, r.wins+r.losses)
	r.pWorse = signTest(r.losses, r.wins+r.losses)
	gain := r.headMed - r.baseMed // in the metric's unit, positive when head is better
	if m.Better == "lower" {
		gain = -gain
	}
	q1, q3 := quartiles(base)
	switch {
	case worsening(m.Better, r.baseMed, r.headMed) > m.Bound || median(worse) > m.Bound:
		r.verdict = verdictRegressed
	case 10*r.wins >= 9*n && r.pBetter <= judgeAlpha && gain > q3-q1:
		r.verdict = verdictBetter
	case (spread(base) > m.Bound || spread(head) > m.Bound) && !beatsAll(m.Better, base, head):
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictSame
	}
	return r
}

// spread is a side's run-to-run spread: its interquartile range as a share
// of its median, 0 for fewer than two runs or a median of 0.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// beatsAll reports whether every head run reads better than every base run.
func beatsAll(better string, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if worsening(better, b, h) >= 0 {
				return false
			}
		}
	}
	return true
}

// worsening is how much worse head is than base, as a share of base, in the
// metric's direction: positive means worse. Equal values read 0, and a
// base of 0 reads ±Inf by head's sign.
func worsening(better string, base, head float64) float64 {
	if head == base {
		return 0
	}
	d := (head - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}

// signTest is the exact one-sided sign test: the chance of at least k
// successes in n fair coin flips. It is 1 for n = 0.
func signTest(k, n int) float64 {
	p, c := 0.0, 1.0 // c runs through C(n, i)
	for i := 0; i <= n; i++ {
		if i >= k {
			p += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Exp2(float64(n))
}

// median is the middle of v, the mean of the two middle values for an even
// length.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quartiles returns the first and third cut points of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method), the spread rule a
// claimed gain is judged by; both are v's only value for a length of one.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
