package metrics

import (
	"errors"
	"time"

	"lava/internal/cluster"
)

// Sample is one point-in-time measurement of a pool. The JSON form is the
// wire shape of the placement server's /snapshot endpoint (internal/serve),
// so field tags are part of the serving API.
type Sample struct {
	Time           time.Duration `json:"time_ns"`
	EmptyHostFrac  float64       `json:"empty_host_frac"`
	EmptyToFree    float64       `json:"empty_to_free"`
	PackingDensity float64       `json:"packing_density"`
	CPUUtil        float64       `json:"cpu_util"`
	MemUtil        float64       `json:"mem_util"`
	NumVMs         int           `json:"num_vms"`
	NumEmptyHosts  int           `json:"num_empty_hosts"`
}

// Snapshot measures the pool at the given time.
func Snapshot(p *cluster.Pool, now time.Duration) Sample {
	cpu, mem := p.Utilization()
	return Sample{
		Time:           now,
		EmptyHostFrac:  p.EmptyHostFraction(),
		EmptyToFree:    p.EmptyToFreeRatio(),
		PackingDensity: p.PackingDensity(),
		CPUUtil:        cpu,
		MemUtil:        mem,
		NumVMs:         p.NumVMs(),
		NumEmptyHosts:  p.EmptyHosts(),
	}
}

// Series is an ordered collection of samples.
type Series struct {
	Samples []Sample
}

// Add appends a sample; times must be non-decreasing.
func (s *Series) Add(sample Sample) error {
	if n := len(s.Samples); n > 0 && sample.Time < s.Samples[n-1].Time {
		return errors.New("metrics: out-of-order sample")
	}
	s.Samples = append(s.Samples, sample)
	return nil
}

// After returns the sub-series at or after t (used to drop warm-up).
func (s *Series) After(t time.Duration) *Series {
	out := &Series{}
	for _, smp := range s.Samples {
		if smp.Time >= t {
			out.Samples = append(out.Samples, smp)
		}
	}
	return out
}

// Field selects a metric from a sample.
type Field func(Sample) float64

// Field selectors.
var (
	EmptyHostFrac  Field = func(s Sample) float64 { return s.EmptyHostFrac }
	EmptyToFree    Field = func(s Sample) float64 { return s.EmptyToFree }
	PackingDensity Field = func(s Sample) float64 { return s.PackingDensity }
	CPUUtil        Field = func(s Sample) float64 { return s.CPUUtil }
)

// Mean averages a field over the series (samples are evenly spaced in the
// simulator, so the plain mean is the time-weighted mean).
func (s *Series) Mean(f Field) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, smp := range s.Samples {
		sum += f(smp)
	}
	return sum / float64(len(s.Samples))
}

// Values extracts a field as a slice (for stats helpers).
func (s *Series) Values(f Field) []float64 {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = f(smp)
	}
	return out
}

// Times extracts sample times in hours.
func (s *Series) Times() []float64 {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = smp.Time.Hours()
	}
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }
