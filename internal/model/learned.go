package model

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/model/cox"
	"lava/internal/model/gbdt"
	"lava/internal/model/km"
	"lava/internal/model/mlp"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// uptimeLog10 encodes an uptime for the model's uptime feature column.
func uptimeLog10(uptime time.Duration) float64 {
	if uptime <= 0 {
		return ZeroUptimeLog10
	}
	return simtime.Log10Hours(uptime)
}

// clampRemaining bounds a model output to [1 minute, cap]. Learned models
// are trained on capped labels (Appendix B), so their outputs should already
// be below the cap; the clamp protects the schedulers from pathological
// extrapolation.
func clampRemaining(d time.Duration) time.Duration {
	if d < time.Minute {
		return time.Minute
	}
	if d > simtime.CapLifetime {
		return simtime.CapLifetime
	}
	return d
}

// --- GBDT ---------------------------------------------------------------

// GBDTPredictor is the production model of the paper: a gradient-boosted
// regression forest over the Table 3 features plus uptime, predicting log10
// remaining hours (§3).
//
// The forest compares bins, not values, and a VM's ten static columns never
// change, so for one static-bin vector the remaining lifetime is a step
// function of the uptime bin. PredictRemaining walks the forest once per
// step and answers repredictions from a table, bit-equal to the walk. Enc
// and M must not change after the first prediction.
type GBDTPredictor struct {
	Enc *features.Encoder
	M   *gbdt.Model

	// steps maps a static-bin vector to its step function; derived state,
	// built on use and never saved. Readers load the map and never lock;
	// mu serialises the writers, which publish a copy with one more table.
	mu    sync.Mutex
	steps atomic.Pointer[map[staticBins]stepTable]
}

// uptimeCol is the uptime column of an encoded vector: the last one.
const uptimeCol = features.NumColumns - 1

// staticBins is the bin vector of a VM's static columns, the key of its
// step table.
type staticBins [uptimeCol]uint8

// stepTable is one step function: the clamped remaining lifetime by uptime
// bin, len(Edges[uptimeCol])+1 entries. Zero marks an entry not computed
// yet; clampRemaining never returns less than a minute.
type stepTable []atomic.Int64

// maxStepTables bounds the tables a predictor keeps: 8 bytes per uptime bin
// each, 512 at the default 64 bins. A VM type past the bound is predicted
// by the walk.
const maxStepTables = 4096

// TrainGBDT trains the production-style model from trace records, using
// the uptime-augmented survival examples of §3.
func TrainGBDT(records []trace.Record, p gbdt.Params) (*GBDTPredictor, error) {
	exs := BuildExamples(records)
	if len(exs) == 0 {
		return nil, fmt.Errorf("model: no training examples")
	}
	enc := features.Fit(exs)
	X := make([][]float64, len(exs))
	y := make([]float64, len(exs))
	// One backing array for the matrix, not a slice per row.
	cells := make([]float64, 0, len(exs)*features.NumColumns)
	for i, ex := range exs {
		cells = enc.AppendEncode(cells, ex.F, ex.UptimeLog10)
		X[i] = cells[len(cells)-features.NumColumns:]
		y[i] = ex.Log10Hours
	}
	m, err := gbdt.Train(X, y, p)
	if err != nil {
		return nil, err
	}
	return &GBDTPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (g *GBDTPredictor) Name() string { return "gbdt" }

// PredictRemaining implements Predictor.
func (g *GBDTPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	var xbuf [features.NumColumns]float64
	var bbuf [features.NumColumns]uint8
	x := g.Enc.AppendEncode(xbuf[:0], vm.Feat, uptimeLog10(uptime))
	bins := g.M.AppendBins(bbuf[:0], x)
	if len(bins) != features.NumColumns {
		panic(fmt.Sprintf("model: GBDT over %d columns, want %d", len(bins), features.NumColumns))
	}
	tab := g.stepTable(staticBins(bins[:uptimeCol]))
	if tab == nil {
		return g.walk(bins)
	}
	step := &tab[bins[uptimeCol]]
	if rem := step.Load(); rem != 0 {
		return time.Duration(rem)
	}
	rem := g.walk(bins)
	step.Store(int64(rem))
	return rem
}

// walk runs the forest over one binned vector.
func (g *GBDTPredictor) walk(bins []uint8) time.Duration {
	return clampRemaining(simtime.FromHours(math.Pow(10, g.M.PredictBinned(bins))))
}

// stepTable returns the table of one static-bin vector, adding it on first
// sight, or nil once the predictor holds maxStepTables others.
func (g *GBDTPredictor) stepTable(key staticBins) stepTable {
	tabs := g.stepTables()
	if tab, ok := tabs[key]; ok || len(tabs) >= maxStepTables {
		return tab
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	tabs = g.stepTables()
	if tab, ok := tabs[key]; ok || len(tabs) >= maxStepTables {
		return tab
	}
	next := make(map[staticBins]stepTable, len(tabs)+1)
	maps.Copy(next, tabs)
	tab := make(stepTable, len(g.M.Edges[uptimeCol])+1)
	next[key] = tab
	g.steps.Store(&next)
	return tab
}

// stepTables returns the current map of tables; nil before the first one.
func (g *GBDTPredictor) stepTables() map[staticBins]stepTable {
	if m := g.steps.Load(); m != nil {
		return *m
	}
	return nil
}

// --- MLP ----------------------------------------------------------------

// MLPPredictor is the neural-network regression baseline of Table 4.
type MLPPredictor struct {
	Enc *features.Encoder
	M   *mlp.Model
}

// TrainMLP trains the neural-network baseline on the same augmented
// examples as the GBDT.
func TrainMLP(records []trace.Record, p mlp.Params) (*MLPPredictor, error) {
	exs := BuildExamples(records)
	if len(exs) == 0 {
		return nil, fmt.Errorf("model: no training examples")
	}
	enc := features.Fit(exs)
	X := make([][]float64, len(exs))
	y := make([]float64, len(exs))
	for i, ex := range exs {
		X[i] = enc.Encode(ex.F, ex.UptimeLog10)
		y[i] = ex.Log10Hours
	}
	m, err := mlp.Train(X, y, p)
	if err != nil {
		return nil, err
	}
	return &MLPPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (m *MLPPredictor) Name() string { return "mlp" }

// PredictRemaining implements Predictor.
func (m *MLPPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	x := m.Enc.Encode(vm.Feat, uptimeLog10(uptime))
	logh := m.M.Predict(x)
	return clampRemaining(simtime.FromHours(math.Pow(10, logh)))
}

// --- Stratified Kaplan-Meier ----------------------------------------------

// KMPredictor is the stratified Kaplan-Meier lookup-table baseline
// (Table 4, §7).
type KMPredictor struct {
	S   *km.Stratified
	Key func(features.Features) string
}

// TrainKM fits per-stratum KM curves from trace records. Records are
// treated as uncensored (synthetic traces carry complete lifetimes).
func TrainKM(records []trace.Record, key func(features.Features) string) (*KMPredictor, error) {
	if key == nil {
		key = DefaultKey
	}
	obs := make([]km.Observation, len(records))
	strata := make([]string, len(records))
	for i, r := range records {
		obs[i] = km.Observation{Duration: r.Lifetime, Event: true}
		strata[i] = key(r.Feat)
	}
	s, err := km.FitStratified(obs, strata, features.MinCategoryCount)
	if err != nil {
		return nil, err
	}
	return &KMPredictor{S: s, Key: key}, nil
}

// Name implements Predictor.
func (k *KMPredictor) Name() string { return "stratified-km" }

// PredictRemaining implements Predictor via restricted-mean remaining life.
func (k *KMPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := k.S.ExpRemaining(k.Key(vm.Feat), uptime)
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// --- Cox proportional hazards -----------------------------------------------

// CoxPredictor is the linear Cox PH baseline of Table 4.
type CoxPredictor struct {
	Enc *features.Encoder
	M   *cox.Model
}

// TrainCox fits the Cox baseline. Unlike the regression models, Cox is a
// native survival model: no uptime augmentation is used, and repredictions
// come from the conditional survival function.
func TrainCox(records []trace.Record, opt cox.Options) (*CoxPredictor, error) {
	exs := make([]features.Example, len(records))
	for i, r := range records {
		lt := r.Lifetime
		if lt > simtime.CapLifetime {
			lt = simtime.CapLifetime
		}
		exs[i] = features.Example{F: r.Feat, Log10Hours: simtime.Log10Hours(lt), UptimeLog10: ZeroUptimeLog10}
	}
	enc := features.Fit(exs)
	subjects := make([]cox.Subject, len(records))
	for i, r := range records {
		subjects[i] = cox.Subject{
			X:        enc.Encode(r.Feat, ZeroUptimeLog10),
			Duration: r.Lifetime,
			Event:    true,
		}
	}
	m, err := cox.Fit(subjects, opt)
	if err != nil {
		return nil, err
	}
	return &CoxPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (c *CoxPredictor) Name() string { return "linear-cox" }

// PredictRemaining implements Predictor.
func (c *CoxPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	x := c.Enc.Encode(vm.Feat, ZeroUptimeLog10)
	rem := c.M.ExpRemaining(x, uptime)
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// gbdtBundle serializes a GBDT predictor: model plus its feature encoder.
type gbdtBundle struct {
	Encoder *features.Encoder `json:"encoder"`
	Model   *gbdt.Model       `json:"model"`
}

// Save persists the predictor (model + encoder) as JSON.
func (g *GBDTPredictor) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(gbdtBundle{Encoder: g.Enc, Model: g.M})
}

// LoadGBDT restores a predictor written by Save.
func LoadGBDT(r io.Reader) (*GBDTPredictor, error) {
	var b gbdtBundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("model: load gbdt: %w", err)
	}
	if b.Encoder == nil || b.Model == nil || b.Model.NumFeat != features.NumColumns {
		return nil, fmt.Errorf("model: load gbdt: malformed bundle")
	}
	return &GBDTPredictor{Enc: b.Encoder, M: b.Model}, nil
}
