package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runRecord is one line of a run file, as sweep.sh writes it: which run it
// was, and the JSON object the run printed.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// readRuns loads the untraced runs of a run file, as values per workload
// and end-to-end metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its output checks", path, line, r.Workload, r.Seed)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// Verdicts of one (workload, metric) row.
const (
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to two sets of runs. The candidate has
// regressed when its median is worse than the baseline's by more than the
// bound. Where either side's own spread exceeds the bound the row cannot
// be called unchanged: it is unresolved, unless every candidate run reads
// better than every baseline run.
func judge(m metricSpec, base, cand []float64) string {
	if worsening(m.Better, median(base), median(cand)) > m.Bound {
		return verdictRegressed
	}
	if spread(base) > m.Bound || spread(cand) > m.Bound {
		for _, c := range cand {
			for _, b := range base {
				if worsening(m.Better, b, c) >= 0 {
					return verdictUnresolved
				}
			}
		}
	}
	return verdictSame
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareFiles(w io.Writer, spec *benchSpec, basePath, candPath string) (regressed bool, err error) {
	base, err := readRuns(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRuns(candPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-19s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "base.median", "spread", "cand.median", "spread", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			b, c := base[wl][m.Name], cand[wl][m.Name]
			if len(b) == 0 || len(c) == 0 {
				return false, fmt.Errorf("%s %s: runs missing on one side", wl, m.Name)
			}
			v := judge(m, b, c)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-13s %-19s %12.6g %7.2f%% %12.6g %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl, m.Name, median(b), 100*spread(b), median(c), 100*spread(c),
				100*worsening(m.Better, median(b), median(c)), 100*m.Bound, v)
		}
	}
	return regressed, nil
}
