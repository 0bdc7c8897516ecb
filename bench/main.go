// Command bench is the repository's benchmark: one program that measures
// the whole placement path — workload generation, trace cursor, lifetime
// model, scheduler, simulator, and the HTTP serving stack around them — on
// four workloads, end to end and layer by layer.
//
//	bash bench/run.sh --workload serve-single --seed 1 --seconds 22 --trace 0
//	bash bench/run.sh --seed 1                      # every workload, untraced then traced
//	bash bench/run.sh --compare a.jsonl b.jsonl     # apply BENCHMARK.json's bounds
//
// Every input is generated from --seed; the program under test receives
// only the generated inputs. A run with --trace 0 measures the end-to-end
// metrics with no instrumentation installed; a run with --trace 1 repeats
// the workload with decorators around each layer's public API, reports the
// per-layer metrics and writes sampled spans to bench/out/. Each run checks
// its outputs (rep-to-rep byte identity, pool invariants, online ≡ offline
// parity) and prints, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics.
//
// The metric names, units, directions and bounds live in BENCHMARK.json at
// the repository root; README.md in this directory records why each
// workload exists and which layer it loads. The benchmark measures layers
// from outside only: it adds no switch, flag or hook to the program under
// test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// specPath is BENCHMARK.json as seen from the checkout root, where the
// benchmark's command runs.
const specPath = "BENCHMARK.json"

// outDir receives the span files of traced runs.
const outDir = "bench/out"

// workloads maps the names BENCHMARK.json declares to their runners.
var workloads = map[string]func(runConfig) (*outcome, error){
	replayGBDT.name:  replayGBDT.run,
	replayScale.name: replayScale.run,
	serveSingle.name: serveSingle.run,
	serveFleet.name:  serveFleet.run,
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run (a name from BENCHMARK.json, or all)")
		seed         = flag.Int64("seed", 1, "the only source of randomness: trace generation and class assignment")
		seconds      = flag.Int("seconds", 0, "length of the measured section (default: BENCHMARK.json run_seconds)")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, no instrumentation; 1: per-layer metrics from a traced run")
		compare      = flag.Bool("compare", false, "compare two run files (see sweep.sh): bench --compare a.jsonl b.jsonl")
	)
	flag.Parse()

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two run files"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}

	fmt.Printf("# machine nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	type job struct {
		name   string
		traced bool
	}
	var jobs []job
	if *workloadName == "all" {
		for _, t := range []bool{false, true} {
			for _, w := range spec.Workloads {
				jobs = append(jobs, job{w.Name, t})
			}
		}
	} else {
		jobs = []job{{*workloadName, *traced != 0}}
	}
	ok := true
	for _, j := range jobs {
		run, found := workloads[j.name]
		if !found {
			fatal(fmt.Errorf("unknown workload %q", j.name))
		}
		out, err := run(runConfig{seed: *seed, seconds: float64(*seconds), traced: j.traced, spanDir: outDir})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
		res, err := spec.result(out, j.traced)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", j.name, err))
		}
		printTable(j.name, out, res)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printTable prints one "workload metric value unit" row per metric, with
// the sample count where the metric is a statistic over samples.
func printTable(workload string, out *outcome, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		row := fmt.Sprintf("%s %s %.6g %s", workload, name, m.Value, m.Unit)
		if n, ok := out.samples[name]; ok {
			row += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(row)
	}
	for _, note := range out.notes {
		fmt.Printf("# %s %s\n", workload, note)
	}
}

// commit reports the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository (the driver's checkout is one).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
