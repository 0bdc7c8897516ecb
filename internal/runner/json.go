package runner

import (
	"encoding/json"
	"io"
	"sync"
)

// Summary is the machine-readable record of one executed batch. A sequence
// of summaries (one per experiment) forms the BENCH_*.json trajectory
// document that CI archives, so packing-quality and throughput regressions
// can be diffed across commits.
type Summary struct {
	Name       string      `json:"name"`
	Workers    int         `json:"workers"`
	Jobs       int         `json:"jobs"`
	Failed     int         `json:"failed"`
	ElapsedSec float64     `json:"elapsed_sec"`
	Results    []JobResult `json:"results"`
}

// Summarize rolls completed job results into a Summary. elapsedSec is the
// batch wall clock (which is less than the sum of job times when workers
// overlap).
func Summarize(name string, workers int, elapsedSec float64, results []JobResult) Summary {
	s := Summary{Name: name, Workers: workers, Jobs: len(results), ElapsedSec: elapsedSec, Results: results}
	for i := range results {
		if results[i].Error != "" {
			s.Failed++
		}
	}
	return s
}

// Sink is a thread-safe collector of batch summaries. Experiments append
// to the sink their Options carry; the CLI writes the collected document
// with WriteJSON when -json is set.
type Sink struct {
	mu        sync.Mutex
	summaries []Summary
}

// Add appends a summary.
func (s *Sink) Add(sum Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.summaries = append(s.summaries, sum)
}

// Summaries returns the collected summaries in insertion order.
func (s *Sink) Summaries() []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Summary, len(s.summaries))
	copy(out, s.summaries)
	return out
}

// Document is the top-level JSON output of a run: the configuration that
// produced it plus every batch executed under it.
type Document struct {
	Scale      float64   `json:"scale,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	Parallel   int       `json:"parallel,omitempty"`
	ElapsedSec float64   `json:"elapsed_sec,omitempty"`
	Batches    []Summary `json:"batches"`
}

// Canonicalize strips the document's run-environment noise — wall-clock
// timings, worker counts and scoring-engine counters — leaving only fields
// that are a pure function of (experiments, scale, seed). Canonical documents from runs at different
// parallelism settings are byte-identical, which is what CI's determinism
// job diffs.
func (d *Document) Canonicalize() {
	d.Parallel = 0
	d.ElapsedSec = 0
	for i := range d.Batches {
		d.Batches[i].Workers = 0
		d.Batches[i].ElapsedSec = 0
		for j := range d.Batches[i].Results {
			d.Batches[i].Results[j].ElapsedSec = 0
			// Serving latencies are wall-clock measurements, not a function
			// of (experiments, scale, seed).
			d.Batches[i].Results[j].Serving = nil
			// Cache counters belong to one engine, not to the result.
			d.Batches[i].Results[j].Cache = nil
		}
	}
}

// WriteJSON writes the document, indented for diff-friendliness.
func WriteJSON(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
