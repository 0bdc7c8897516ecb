package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one declared metric of BENCHMARK.json. Bound is the share
// of the baseline median by which an end-to-end metric may worsen before it
// counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single declaration of what this
// benchmark measures. The program reads it rather than repeating the names:
// a value computed under an undeclared name, or an end-to-end name left
// without a value, fails the run.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runConfig is what the driver passes to one run.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	spanDir string // where a traced run writes its span file
}

// outcome is what one workload run measured: values by declared metric
// name, plus the output-check verdict and the operation counts.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	samples   map[string]int // sample count behind a percentile, by metric name
	notes     []string       // per-phase counts and other context, printed as comments
}

func newOutcome() *outcome {
	return &outcome{correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) setN(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check: the run still reports its numbers,
// but as incorrect and with every attempted operation counted failed.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.note("CHECK FAILED: "+format, args...)
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result projects an outcome onto the declared metric set: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A per-layer metric the workload never touches (the serving
// layers on an offline replay) reads 0: that layer did no work.
func (s *benchSpec) result(o *outcome, traced bool) (*result, error) {
	declared := s.EndToEnd
	if traced {
		declared = s.PerLayer
	}
	res := &result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(declared))}
	if !o.correct {
		res.Failed = o.attempted
	}
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
		v, ok := o.values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range o.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared in %s", name, specPath)
		}
	}
	return res, nil
}
