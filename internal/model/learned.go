package model

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/model/cox"
	"lava/internal/model/gbdt"
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
// function of the uptime (StepFn). The predictor fills each such table in
// one pass over the trees, finds the uptime at which each uptime bin starts
// once, and remembers, per VM, the step function its features select: a
// reprediction is one threshold search and one load, bit-equal to the
// forest walk. A caller that holds a VM can bind its step function once
// (Steps); the step functions of VM features seen before come from a
// bounded memo, without encoding the features again. Enc and M must not
// change after the first prediction.
type GBDTPredictor struct {
	Enc *features.Encoder
	M   *gbdt.Model

	// steps maps a static-bin vector to its step table, and memo VM
	// features to their step function (Rem nil past maxStepTables): derived
	// state, built on use and never saved. mu guards both; a table or memo
	// entry, once added, is never changed or removed.
	mu    sync.RWMutex
	steps map[staticBins]stepTable
	memo  map[features.Features]StepFn

	// at is StepFn.At of every table, computed once from the uptime edges.
	atOnce sync.Once
	at     []time.Duration

	// slots remembers the step functions of recently predicted VMs, by VM
	// ID modulo numSlots; derived state like steps.
	slots [numSlots]vmSlot
}

// uptimeCol is the uptime column of an encoded vector: the last one.
const uptimeCol = features.NumColumns - 1

// staticBins is the bin vector of a VM's static columns, the key of its
// step table.
type staticBins [uptimeCol]uint8

// stepTable is one step function's answers: the clamped remaining lifetime
// by uptime bin, len(Edges[uptimeCol])+1 entries. It is filled before it is
// published and never written after.
type stepTable []time.Duration

// maxStepTables bounds the tables a predictor keeps: 8 bytes per uptime bin
// each, 512 at the default 64 bins. A VM type past the bound is predicted
// by the walk.
const maxStepTables = 4096

// maxStepMemo bounds the memo of step functions by VM features, at about
// 200 B an entry: ten times the ~400 feature vectors of a 96-host, 10-day
// generated trace, and as many as there can be tables. Features past the
// bound are encoded and looked up on every call, as without the memo.
const maxStepMemo = 4096

// numSlots is the number of per-VM slots, a power of two: room for the
// VMs a pool of a few hundred hosts keeps live, at about 150 B a slot.
const numSlots = 1024

// vmSlot is one VM's step function. A slot answers for a VM whose features
// equal feat — the step function is a function of the features alone — so
// two VMs that share an ID, in two pools or one after the other, cannot
// read each other's answers; they only refill the slot in turn. mu guards
// the slot alone, so callers predicting different VMs do not wait on each
// other.
type vmSlot struct {
	mu   sync.Mutex
	set  bool
	feat features.Features
	fn   StepFn // Rem nil past maxStepTables: walk
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
		s.set, s.feat = true, vm.Feat
		s.fn, _ = g.stepsOf(&vm.Feat)
	}
	fn := s.fn
	s.mu.Unlock()
	if fn.Rem == nil {
		return g.walk(vm.Feat, uptime)
	}
	return fn.Remaining(uptime)
}

// Steps returns the VM's step function (see Predictor), or false once the
// predictor holds maxStepTables tables of other VM types.
func (g *GBDTPredictor) Steps(vm *cluster.VM) (StepFn, bool) {
	return g.stepsOf(&vm.Feat)
}

// stepsOf returns the step function of the VM features f, from the memo
// when f has been seen.
func (g *GBDTPredictor) stepsOf(f *features.Features) (StepFn, bool) {
	g.mu.RLock()
	fn, ok := g.memo[*f]
	g.mu.RUnlock()
	if !ok {
		fn = g.computeSteps(f)
	}
	return fn, fn.Rem != nil
}

// computeSteps encodes the VM features f and returns the step function of
// their bins (Rem nil past maxStepTables), remembering it in the memo.
func (g *GBDTPredictor) computeSteps(f *features.Features) StepFn {
	var xbuf [features.NumColumns]float64
	var bbuf [features.NumColumns]uint8
	x := g.Enc.AppendEncode(xbuf[:0], *f, ZeroUptimeLog10)
	bins := g.M.AppendBins(bbuf[:0], x)
	if len(bins) != features.NumColumns {
		panic(fmt.Sprintf("model: GBDT over %d columns, want %d", len(bins), features.NumColumns))
	}
	g.atOnce.Do(func() { g.at = uptimeSteps(g.M.Edges[uptimeCol]) })
	key := staticBins(bins[:uptimeCol])
	g.mu.RLock()
	tab, ok := g.steps[key]
	fill := !ok && len(g.steps) < maxStepTables
	memo := len(g.memo) < maxStepMemo
	g.mu.RUnlock()
	if fill {
		// Filled outside the lock, so that readers never wait on the trees;
		// of two goroutines that race to fill one table, the first wins.
		tab = g.fillTable(key)
	}
	if fill || memo {
		g.mu.Lock()
		tab = g.store(f, key, tab)
		g.mu.Unlock()
	}
	return g.stepFn(tab)
}

// stepFn is the step function over a table; the zero StepFn for none.
func (g *GBDTPredictor) stepFn(tab stepTable) StepFn {
	if tab == nil {
		return StepFn{}
	}
	return StepFn{At: g.at, Rem: tab}
}

// store adds the table of key, unless it has one or the predictor holds
// maxStepTables, and remembers the step function of f in the memo, unless
// it is full. It returns the table key has now. g.mu must be held.
func (g *GBDTPredictor) store(f *features.Features, key staticBins, tab stepTable) stepTable {
	if have, ok := g.steps[key]; ok {
		tab = have
	} else if tab != nil && len(g.steps) < maxStepTables {
		if g.steps == nil {
			g.steps = make(map[staticBins]stepTable)
		}
		g.steps[key] = tab
	} else {
		tab = nil
	}
	if len(g.memo) < maxStepMemo {
		if g.memo == nil {
			g.memo = make(map[features.Features]StepFn)
		}
		g.memo[*f] = g.stepFn(tab)
	}
	return tab
}

// walk is the forest's answer without the tables: encode, one walk.
func (g *GBDTPredictor) walk(f features.Features, uptime time.Duration) time.Duration {
	var xbuf [features.NumColumns]float64
	return remaining(g.M.Predict(g.Enc.AppendEncode(xbuf[:0], f, uptimeLog10(uptime))))
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

// uptimeSteps returns StepFn.At for the uptime edges: for each edge an
// uptime reaches, the first uptime, in nanoseconds, whose bin
// (uptimeBin of uptimeLog10) lies past it. An edge no Duration reaches gets
// no entry. The count of entries <= u is then u's bin for every u >= 0,
// exactly, because the bin never falls as u grows: uptimeLog10 is -4 at 0
// and simtime.Log10Hours above it, which starts higher (its one-second
// floor is log10(1/3600), about -3.56) and is non-decreasing in
// nanoseconds (Duration.Hours and math.Log10 are both monotone). FuzzUptimeSteps checks the count against the
// logarithm.
func uptimeSteps(edges []float64) []time.Duration {
	at := make([]time.Duration, uptimeBin(edges, uptimeLog10(math.MaxInt64)))
	for i := range at {
		past := func(u time.Duration) bool { return uptimeBin(edges, uptimeLog10(u)) > i }
		// Bisect [lo, hi], which holds the first past uptime: first next to
		// the uptime the edge names, the whole range if the threshold is
		// not there (the one-second floor, a huge edge).
		guess := simtime.FromHours(math.Pow(10, edges[i]))
		w := guess>>30 + 2
		lo, hi := guess-w, guess+w
		if guess > math.MaxInt64-w || lo < 0 || past(lo) || !past(hi) {
			lo, hi = -1, math.MaxInt64
		}
		for lo++; lo < hi; {
			if mid := lo + (hi-lo)/2; past(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		at[i] = lo
	}
	return at
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

// fillTable computes the table of one static-bin vector: one pass over the
// trees gives the output of every uptime bin.
func (g *GBDTPredictor) fillTable(key staticBins) stepTable {
	var logh [256]float64
	out := logh[:len(g.M.Edges[uptimeCol])+1]
	bins := key.with(0)
	g.M.PredictEachBin(out, bins[:], uptimeCol)
	tab := make(stepTable, len(out))
	for v, x := range out {
		tab[v] = remaining(x)
	}
	return tab
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
	return remaining(m.M.Predict(m.Enc.Encode(vm.Feat, uptimeLog10(uptime))))
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
func TrainCox(records []trace.Record) (*CoxPredictor, error) {
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
	m, err := cox.Fit(subjects)
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
	return simtime.FloorRemaining(c.M.ExpRemaining(x, uptime), uptime)
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
