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
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
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
//
// With -base and -head it first makes the two files (see runPairs): it runs
// the benchmark's command in both checkouts for every seed and workload,
// and writes the base runs to the first file and the head runs to the
// second.
func Benchjudge(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := newFlagSet("benchjudge", stderr)
	var (
		baseDir   = flags.String("base", "", "checkout of the parent: with -head, run the benchmark in both before judging")
		headDir   = flags.String("head", "", "checkout of the change (see -base)")
		workloads = flags.String("workloads", "", "with -base/-head: comma-separated workloads to run (default every workload of BENCHMARK.json)")
		seeds     = flags.String("seeds", "1-10", "with -base/-head: seeds to run, as a comma-separated list of N or A-B")
	)
	return run(flags, args, stderr, func() error {
		if flags.NArg() != 2 {
			return errors.New("want two run files, base then head")
		}
		spec, err := readBenchSpec("BENCHMARK.json")
		if err != nil {
			return err
		}
		if *baseDir != "" || *headDir != "" {
			if *baseDir == "" || *headDir == "" {
				return errors.New("-base and -head go together")
			}
			p := pairPlan{base: *baseDir, head: *headDir, command: spec.Command, seconds: spec.RunSeconds}
			if p.seeds, err = parseSeeds(*seeds); err != nil {
				return err
			}
			if p.workloads, err = pickWorkloads(spec, *workloads); err != nil {
				return err
			}
			if err := runPairs(ctx, p, flags.Arg(0), flags.Arg(1), stderr); err != nil {
				return err
			}
		}
		base, err := readRunFile(flags.Arg(0))
		if err != nil {
			return err
		}
		head, err := readRunFile(flags.Arg(1))
		if err != nil {
			return err
		}
		rows, err := judgeRuns(spec.EndToEnd, base, head)
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

// benchSpec is what Benchjudge reads of a BENCHMARK.json: the command that
// runs one workload, its workloads and default run length, and the
// end-to-end metrics.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
}

// readBenchSpec reads a BENCHMARK.json.
func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return &spec, nil
}

// pairPlan is what runPairs runs: the benchmark's command in two checkouts,
// for every seed and workload, each run --seconds long (BENCHMARK.json's
// run_seconds, the length every run of the benchmark has).
type pairPlan struct {
	base, head string
	command    []string
	workloads  []string
	seeds      []int64
	seconds    int
}

// runPairs runs the plan's untraced runs and writes them to two new run
// files, base runs to basePath and head runs to headPath, one line per run
// as bench/sweep.sh writes it. Each (seed, workload) runs once in each
// checkout, base first on the 1st, 3rd, … seed of the list and head first
// on the others, so neither side always meets the box warmer. A run that
// exits non-zero, or whose result says "correct": false, ends the sweep
// with an error; the files keep the runs before it. Progress lines and the
// runs' stderr go to progress.
func runPairs(ctx context.Context, p pairPlan, basePath, headPath string, progress io.Writer) error {
	if len(p.command) == 0 {
		return errors.New("BENCHMARK.json names no command")
	}
	type side struct {
		name, dir string
		out       *os.File
	}
	sides := []*side{{name: "base", dir: p.base}, {name: "head", dir: p.head}}
	for i, path := range []string{basePath, headPath} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sides[i].out = f
	}
	for i, seed := range p.seeds {
		for _, w := range p.workloads {
			for j := range sides {
				s := sides[(i+j)%2]
				res, err := runOnce(ctx, p, s.dir, w, seed, progress)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", s.name, w, seed, err)
				}
				fmt.Fprintf(progress, "benchjudge: %s seed %d %s done\n", w, seed, s.name)
				line, err := json.Marshal(struct {
					Workload string          `json:"workload"`
					Seed     int64           `json:"seed"`
					Trace    int             `json:"trace"`
					Result   json.RawMessage `json:"result"`
				}{w, seed, 0, res})
				if err != nil {
					return err
				}
				if _, err := s.out.Write(append(line, '\n')); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range sides {
		if err := s.out.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runOnce runs the plan's command once, untraced, in the checkout dir and
// returns its result: the last line it prints, which must be a JSON object
// whose "correct" is true. The command's stderr goes to stderr.
func runOnce(ctx context.Context, p pairPlan, dir, workload string, seed int64, stderr io.Writer) (json.RawMessage, error) {
	args := append(slices.Clone(p.command[1:]), "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--trace", "0")
	if p.seconds > 0 {
		args = append(args, "--seconds", strconv.Itoa(p.seconds))
	}
	c := exec.CommandContext(ctx, p.command[0], args...)
	c.Dir, c.Stderr = dir, stderr
	out, err := c.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := []byte(lines[len(lines)-1])
	var r struct {
		Correct *bool `json:"correct"`
	}
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if r.Correct == nil || !*r.Correct {
		return nil, errors.New(`the run says "correct": false`)
	}
	return last, nil
}

// parseSeeds parses a seed list: comma-separated seeds N and ranges A-B.
func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, item := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(item), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil || b < a || b-a >= 1000 {
			return nil, fmt.Errorf("-seeds %q: want N or A-B (A <= B, at most 1000 seeds) items, comma-separated", list)
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

// pickWorkloads returns the named workloads, each of which the spec must
// declare, or every declared workload for an empty list.
func pickWorkloads(spec *benchSpec, list string) ([]string, error) {
	var all []string
	for _, w := range spec.Workloads {
		all = append(all, w.Name)
	}
	if list == "" {
		return all, nil
	}
	picked := strings.Split(list, ",")
	for _, w := range picked {
		if !slices.Contains(all, w) {
			return nil, fmt.Errorf("-workloads: BENCHMARK.json declares no workload %q", w)
		}
	}
	return picked, nil
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
