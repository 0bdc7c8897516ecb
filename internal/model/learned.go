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
// function of the uptime bin. The predictor fills each such table in one
// pass over the trees and remembers, per VM, the table its features select,
// so a reprediction is one uptime-bin search and one load, bit-equal to the
// forest walk. Enc and M must not change after the first prediction.
type GBDTPredictor struct {
	Enc *features.Encoder
	M   *gbdt.Model

	// steps maps a static-bin vector to its step function; derived state,
	// built on use and never saved. Readers load the map without locking;
	// mu serialises the writers, which publish a copy with one more table.
	mu    sync.Mutex
	steps atomic.Pointer[map[staticBins]stepTable]

	// slots remembers the static bins and table of recently predicted VMs,
	// by VM ID modulo numSlots; derived state like steps.
	slots [numSlots]vmSlot
}

// uptimeCol is the uptime column of an encoded vector: the last one.
const uptimeCol = features.NumColumns - 1

// staticBins is the bin vector of a VM's static columns, the key of its
// step table.
type staticBins [uptimeCol]uint8

// stepTable is one step function: the clamped remaining lifetime by uptime
// bin, len(Edges[uptimeCol])+1 entries. It is filled before it is published
// and never written after.
type stepTable []time.Duration

// maxStepTables bounds the tables a predictor keeps: 8 bytes per uptime bin
// each, 512 at the default 64 bins. A VM type past the bound is predicted
// by the walk.
const maxStepTables = 4096

// numSlots is the number of per-VM slots, a power of two: room for the
// VMs a pool of a few hundred hosts keeps live, at about 150 B a slot.
const numSlots = 1024

// vmSlot is what one VM's predictions share: its static bins and their
// table. A slot answers for a VM whose features equal feat — the table is a
// function of the features alone — so two VMs that share an ID, in two
// pools or one after the other, cannot read each other's answers; they
// only refill the slot in turn. mu guards the slot alone, so callers
// predicting different VMs do not wait on each other.
type vmSlot struct {
	mu   sync.Mutex
	set  bool
	key  staticBins
	feat features.Features
	tab  stepTable // nil past maxStepTables: walk
}

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
	s := &g.slots[uint64(vm.ID)%numSlots]
	s.mu.Lock()
	if !s.set || s.feat != vm.Feat {
		g.fillSlot(s, vm.Feat)
	}
	key, tab := s.key, s.tab
	s.mu.Unlock()
	ub := uptimeBin(g.M.Edges[uptimeCol], uptimeLog10(uptime))
	if tab != nil {
		return tab[ub]
	}
	bins := key.with(uint8(ub))
	return remaining(g.M.PredictBinned(bins[:]))
}

// fillSlot points s at the VM features f: their static bins and the table
// of those bins.
func (g *GBDTPredictor) fillSlot(s *vmSlot, f features.Features) {
	var xbuf [features.NumColumns]float64
	var bbuf [features.NumColumns]uint8
	x := g.Enc.AppendEncode(xbuf[:0], f, ZeroUptimeLog10)
	bins := g.M.AppendBins(bbuf[:0], x)
	if len(bins) != features.NumColumns {
		panic(fmt.Sprintf("model: GBDT over %d columns, want %d", len(bins), features.NumColumns))
	}
	s.set, s.key, s.feat = true, staticBins(bins[:uptimeCol]), f
	s.tab = g.stepTable(s.key)
}

// uptimeBin is the bin the forest puts an uptime column value x in: the
// count of edges <= x, as gbdt.Model.AppendBins counts it (a NaN goes past
// the last edge).
func uptimeBin(edges []float64, x float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if !(edges[mid] > x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// with returns the full bin vector of the static bins and an uptime bin.
func (k staticBins) with(uptime uint8) [features.NumColumns]uint8 {
	var bins [features.NumColumns]uint8
	copy(bins[:], k[:])
	bins[uptimeCol] = uptime
	return bins
}

// remaining turns a forest output, log10 remaining hours, into the
// predicted remaining lifetime.
func remaining(logh float64) time.Duration {
	return clampRemaining(simtime.FromHours(math.Pow(10, logh)))
}

// stepTable returns the table of one static-bin vector, filling it on first
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
	// One pass over the trees gives the output of every uptime bin.
	var logh [256]float64
	out := logh[:len(g.M.Edges[uptimeCol])+1]
	bins := key.with(0)
	g.M.PredictEachBin(out, bins[:], uptimeCol)
	tab := make(stepTable, len(out))
	for v, x := range out {
		tab[v] = remaining(x)
	}
	next := make(map[staticBins]stepTable, len(tabs)+1)
	maps.Copy(next, tabs)
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
