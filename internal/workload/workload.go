package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/resources"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// LifeMode is one log-normal component of a VM type's lifetime law.
type LifeMode struct {
	Weight      float64 // relative weight within the type
	MedianHours float64 // median lifetime of this mode, hours
	Sigma       float64 // log-normal sigma (natural log domain)
}

// TypeSpec describes one VM type: its share of arrivals, shapes, features
// and lifetime law.
type TypeSpec struct {
	Name            string
	Weight          float64 // share of VM arrivals
	Cores           []int64 // candidate core counts (uniform choice)
	MemPerCoreMB    int64
	SSDProb         float64 // probability a VM of this type attaches SSD
	SSDGB           int64
	Spot            bool
	AdmissionPolicy bool
	Priority        string
	MetadataIDs     int // number of distinct metadata-id values
	Modes           []LifeMode
	MaxLifetime     time.Duration // cap on sampled lifetimes (0 = 60 days)
}

// DefaultMaxLifetime caps sampled lifetimes at two weeks, keeping traces
// within reach of steady state over a multi-week study while preserving the
// heavy-tailed core-hour distribution of Fig. 1.
const DefaultMaxLifetime = 14 * simtime.Day

// cappedLogNormalMeanHours returns E[min(T, cap)] for T ~ LogNormal(ln
// median, sigma), the closed form
//
//	E[min(T,c)] = e^{mu+sigma^2/2} Phi((ln c - mu - sigma^2)/sigma)
//	            + c (1 - Phi((ln c - mu)/sigma)).
func cappedLogNormalMeanHours(medianHours, sigma, capHours float64) float64 {
	if sigma <= 0 {
		if medianHours < capHours {
			return medianHours
		}
		return capHours
	}
	mu := math.Log(medianHours)
	lc := math.Log(capHours)
	phi := func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
	return math.Exp(mu+sigma*sigma/2)*phi((lc-mu-sigma*sigma)/sigma) +
		capHours*(1-phi((lc-mu)/sigma))
}

// meanLifetimeHours returns E[T] in hours for the type's mixture law,
// accounting for the lifetime cap.
func (t *TypeSpec) meanLifetimeHours() float64 {
	cap := t.MaxLifetime
	if cap == 0 {
		cap = DefaultMaxLifetime
	}
	capH := cap.Hours()
	var wsum, sum float64
	for _, m := range t.Modes {
		wsum += m.Weight
		sum += m.Weight * cappedLogNormalMeanHours(m.MedianHours, m.Sigma, capH)
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// meanCores returns the expected core count of the type.
func (t *TypeSpec) meanCores() float64 {
	if len(t.Cores) == 0 {
		return 0
	}
	var s int64
	for _, c := range t.Cores {
		s += c
	}
	return float64(s) / float64(len(t.Cores))
}

// PoolSpec describes one pool's synthetic trace.
type PoolSpec struct {
	Name       string
	Zone       string
	Hosts      int
	HostShape  resources.Vector
	TargetUtil float64       // steady-state CPU utilization to calibrate arrivals
	Duration   time.Duration // steady-state trace length (after prefill)
	Seed       int64
	Mix        []TypeSpec // defaults to DefaultMix() when empty
	Diurnal    float64    // arrival-rate modulation amplitude in [0,1)

	// Prefill prepends a warm-up window so long-lived VMs accumulate to
	// steady state before the measured portion begins (the simulator
	// warm-up of Appendix F). The generated trace covers
	// [0, Prefill+Duration) and records Prefill in Trace.WarmUp; consumers
	// exclude the warm-up from aggregates. Defaults to 0.
	Prefill time.Duration

	// FirstVMID offsets VM IDs so multi-pool studies have globally unique
	// IDs.
	FirstVMID cluster.VMID
}

// DefaultHostShape is a C2-like 64-core host with 6 GiB per core and local
// SSD. VM types span 2-8 GiB per core, so both resource dimensions bind on
// different hosts — the source of the stranding the paper optimizes (§2.3).
var DefaultHostShape = resources.Cores(64, 64*6144, 3000)

// DefaultMix returns the standard VM-type catalog. The mix is tuned so that
// roughly 88% of VMs live under an hour while the vast majority of
// core-hours belong to VMs of an hour or more (Fig. 1), and includes
// bimodal types whose lifetimes features cannot fully determine (Fig. 2).
func DefaultMix() []TypeSpec {
	return []TypeSpec{
		{
			// The thin long tails on the batch types are the §1 mechanism:
			// a model can only predict these VMs short, so a host packed
			// with ~70 of them has a >50% chance of hiding a long-lived
			// one. One-shot schedulers never find out; repredicting ones
			// do.
			Name: "batch-tiny", Weight: 0.58,
			Cores: []int64{1, 2}, MemPerCoreMB: 2048,
			Spot: true, Priority: "batch", MetadataIDs: 40,
			Modes: []LifeMode{{0.985, 0.08, 1.0}, {0.015, 60, 0.8}}, // median ~5 min + 1.5% long tail
		},
		{
			Name: "batch-short", Weight: 0.27,
			Cores: []int64{2, 4}, MemPerCoreMB: 4096,
			Spot: true, Priority: "batch", MetadataIDs: 25,
			Modes: []LifeMode{{0.98, 0.33, 0.8}, {0.02, 48, 0.9}}, // median ~20 min + 2% long tail
		},
		{
			// Lifetimes straddling the LA-Binary 2h cutoff: the middle band
			// where coarse classification costs packing quality.
			Name: "ci-runner", Weight: 0.05,
			Cores: []int64{4, 8}, MemPerCoreMB: 2048,
			Spot: false, Priority: "preemptible", MetadataIDs: 15,
			Modes: []LifeMode{{0.97, 1.5, 0.7}, {0.03, 72, 0.7}}, // median 1.5h + 3% long tail
		},
		{
			Name: "batch-medium", Weight: 0.035,
			Cores: []int64{2, 4, 8}, MemPerCoreMB: 4096,
			Spot: true, Priority: "batch", MetadataIDs: 20,
			Modes: []LifeMode{{1, 6, 0.8}}, // median 6h
		},
		{
			Name: "dev-box", Weight: 0.04,
			Cores: []int64{2, 4, 8}, MemPerCoreMB: 4096,
			Priority: "prod", MetadataIDs: 30,
			// Bimodal: most die within a working day, some live for days —
			// irreducible uncertainty that one-shot predictors mishandle.
			Modes: []LifeMode{{0.6, 4, 0.7}, {0.4, 72, 0.6}},
		},
		{
			Name: "web-service", Weight: 0.02,
			Cores: []int64{4, 8, 16}, MemPerCoreMB: 8192, SSDProb: 0.3, SSDGB: 375,
			Priority: "prod", MetadataIDs: 12,
			Modes: []LifeMode{{0.3, 48, 0.8}, {0.7, 150, 0.7}},
		},
		{
			Name: "database", Weight: 0.013,
			Cores: []int64{16, 30}, MemPerCoreMB: 8192, SSDProb: 0.8, SSDGB: 750,
			Priority: "prod", MetadataIDs: 8,
			Modes: []LifeMode{{1, 200, 0.9}},
		},
		{
			Name: "special-admission", Weight: 0.007,
			Cores: []int64{8, 16}, MemPerCoreMB: 4096,
			AdmissionPolicy: true, Priority: "prod", MetadataIDs: 4,
			Modes: []LifeMode{{1, 180, 0.5}},
		},
	}
}

// E2Mix returns a cost-optimized (E2-like) catalog: smaller shapes, no SSD,
// slightly different lifetime structure.
func E2Mix() []TypeSpec {
	mix := DefaultMix()
	for i := range mix {
		cs := make([]int64, 0, len(mix[i].Cores))
		for _, c := range mix[i].Cores {
			if c > 16 {
				c = 16
			}
			cs = append(cs, c)
		}
		mix[i].Cores = cs
		mix[i].SSDProb = 0
		mix[i].MemPerCoreMB = 2048 + 2048*(int64(i)%2)
	}
	return mix
}

// Generate builds the synthetic trace for spec. It is deterministic in
// spec.Seed, and is a materializing collect over the Stream cursor — the
// two produce identical record sequences by construction.
func Generate(spec PoolSpec) (*trace.Trace, error) {
	g, err := Stream(spec)
	if err != nil {
		return nil, err
	}
	recs, err := trace.Collect(g)
	if err != nil {
		return nil, err
	}
	tr := g.Meta()
	tr.Records = recs
	tr.Sort()
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid trace: %w", err)
	}
	return tr, nil
}

// pickType samples a VM type proportionally to weight, as an index into mix.
func pickType(rng *rand.Rand, mix []TypeSpec, wsum float64) int {
	x := rng.Float64() * wsum
	for i := range mix {
		x -= mix[i].Weight
		if x <= 0 {
			return i
		}
	}
	return len(mix) - 1
}

// typeNames is the closed set of feature strings one VM type can emit, built
// once per generator so that sampling a VM formats and allocates nothing.
type typeNames struct {
	shapes []string // VMShape by index into TypeSpec.Cores
	metas  []string // MetadataID by metadata-id value
}

func newTypeNames(ts *TypeSpec) typeNames {
	n := typeNames{
		shapes: make([]string, len(ts.Cores)),
		metas:  make([]string, max(ts.MetadataIDs, 1)),
	}
	for i, cores := range ts.Cores {
		n.shapes[i] = fmt.Sprintf("%s-%d", ts.Name, cores)
	}
	for i := range n.metas {
		n.metas[i] = fmt.Sprintf("%s-m%02d", ts.Name, i)
	}
	return n
}

// sampleVM draws one VM of the given type; names is newTypeNames(ts).
func sampleVM(rng *rand.Rand, ts *TypeSpec, names *typeNames, id cluster.VMID, arrival time.Duration, zone string) trace.Record {
	ci := rng.Intn(len(ts.Cores))
	cores := ts.Cores[ci]
	shape := resources.Vector{CPUMilli: cores * 1000, MemoryMB: cores * ts.MemPerCoreMB}
	hasSSD := rng.Float64() < ts.SSDProb
	if hasSSD {
		shape.SSDGB = ts.SSDGB
	}

	lifetime := sampleLifetime(rng, ts)

	feat := features.Features{
		Zone:            zone,
		VMShape:         names.shapes[ci],
		VMCategory:      ts.Name,
		MetadataID:      names.metas[rng.Intn(len(names.metas))],
		Priority:        ts.Priority,
		HasSSD:          hasSSD,
		Spot:            ts.Spot,
		AdmissionPolicy: ts.AdmissionPolicy,
		CPUMilli:        shape.CPUMilli,
		MemoryMB:        shape.MemoryMB,
	}
	return trace.Record{ID: id, Arrival: arrival, Lifetime: lifetime, Shape: shape, Feat: feat}
}

// sampleLifetime draws from the type's mixture-of-log-normals law.
func sampleLifetime(rng *rand.Rand, ts *TypeSpec) time.Duration {
	var wsum float64
	for _, m := range ts.Modes {
		wsum += m.Weight
	}
	x := rng.Float64() * wsum
	mode := ts.Modes[len(ts.Modes)-1]
	for _, m := range ts.Modes {
		x -= m.Weight
		if x <= 0 {
			mode = m
			break
		}
	}
	h := mode.MedianHours * math.Exp(mode.Sigma*rng.NormFloat64())
	cap := ts.MaxLifetime
	if cap == 0 {
		cap = DefaultMaxLifetime
	}
	d := simtime.FromHours(h)
	if d > cap {
		d = cap
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}
