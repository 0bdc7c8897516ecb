package model

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lava/internal/cluster"
	"lava/internal/dist"
	"lava/internal/features"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// UptimeFractions are the survival-augmentation points of §3: every
// training VM becomes multiple examples at uptimes of 0, 12.5%, 25%, ... of
// its true lifetime, turning a regression model into a survival model.
var UptimeFractions = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}

// ZeroUptimeLog10 encodes "no uptime yet" in the log10-hours uptime column.
// One second of uptime is ~ -3.56; -4 sits just below every real value.
const ZeroUptimeLog10 = -4.0

// BuildExamples converts trace records into uptime-augmented training
// examples. Lifetimes are capped at 168h before the log transform, exactly
// as production does (Appendix B), and labels are log10 remaining hours.
func BuildExamples(records []trace.Record) []features.Example {
	out := make([]features.Example, 0, len(records)*len(UptimeFractions))
	for _, r := range records {
		for _, f := range UptimeFractions {
			uptime := time.Duration(f * float64(r.Lifetime))
			remaining := r.Lifetime - uptime
			if remaining > simtime.CapLifetime {
				remaining = simtime.CapLifetime
			}
			ul := ZeroUptimeLog10
			if uptime > 0 {
				ul = simtime.Log10Hours(uptime)
			}
			out = append(out, features.Example{
				F:           r.Feat,
				Log10Hours:  simtime.Log10Hours(remaining),
				UptimeLog10: ul,
			})
		}
	}
	return out
}

// SplitRecords partitions records into train/test deterministically by
// hashing VM IDs with the seed; testFrac of VMs land in the test set. A
// testFrac outside [0, 1], or NaN, is clamped: no VM or every VM is held out.
func SplitRecords(records []trace.Record, testFrac float64, seed int64) (train, test []trace.Record) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(records))
	nTest := 0
	if f := testFrac * float64(len(records)); f > 0 {
		nTest = int(min(f, float64(len(records))))
	}
	testIdx := make(map[int]bool, nTest)
	for _, i := range perm[:nTest] {
		testIdx[i] = true
	}
	for i, r := range records {
		if testIdx[i] {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}
	return train, test
}

// --- Distribution-table predictor -------------------------------------------

// DistTable is the learned-distribution predictor at the heart of the
// paper's key insight (§2.1): group training VMs by a feature key, fit an
// empirical lifetime CDF per group, and answer repredictions with the
// conditional expectation E(Tr | Tu) read directly off the distribution
// (Fig. 2). It is also Table 4's stratified Kaplan-Meier baseline, the
// lookup table the authors tried first (§7): trace records carry no censored
// lifetimes, so a stratum's KM curve is its empirical survival function, and
// Train("km") returns this table under the name "stratified-km". A caller
// that holds a VM binds its group's answers once (Steps).
type DistTable struct {
	ModelName string
	tables    map[distKey]*dist.Empirical
	global    *dist.Empirical
}

// distKey groups by the features that dominate importance in Fig. 11:
// category, shape, priority and admission policy. It is a comparable
// struct, so a prediction looks its table up without building a string.
type distKey struct {
	VMCategory, VMShape, Priority string
	AdmissionPolicy               bool
}

func distKeyOf(f *features.Features) distKey {
	return distKey{f.VMCategory, f.VMShape, f.Priority, f.AdmissionPolicy}
}

// TrainDistTable fits per-group empirical distributions from trace records.
func TrainDistTable(records []trace.Record) (*DistTable, error) {
	groups := map[distKey][]time.Duration{}
	var all []time.Duration
	for i := range records {
		r := &records[i]
		k := distKeyOf(&r.Feat)
		groups[k] = append(groups[k], r.Lifetime)
		all = append(all, r.Lifetime)
	}
	global, err := dist.FromDurations(all)
	if err != nil {
		return nil, err
	}
	dt := &DistTable{ModelName: "dist-table", tables: make(map[distKey]*dist.Empirical, len(groups)), global: global}
	for k, ls := range groups {
		if len(ls) < features.MinCategoryCount {
			continue // rare groups fall back to the global distribution
		}
		e, err := dist.FromDurations(ls)
		if err != nil {
			return nil, err
		}
		dt.tables[k] = e
	}
	return dt, nil
}

// Name implements Predictor.
func (d *DistTable) Name() string { return d.ModelName }

// PredictRemaining implements Predictor via the conditional expectation.
func (d *DistTable) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	return simtime.FloorRemaining(d.group(&vm.Feat).CondExpRemaining(uptime), uptime)
}

// Steps binds the VM's answers (see Predictor): the ramp steps of its
// group's distribution, computed once at training, so a bound reprediction
// hashes no feature string and, on the step it read last, searches no
// sample. It declines a group with a negative sample, which has no ramp.
func (d *DistTable) Steps(vm *cluster.VM) (StepFn, bool) {
	at, exp := d.group(&vm.Feat).Ramp()
	return StepFn{At: at, Rem: exp}, at != nil
}

// group is the distribution the features' group answers from: the group's
// own, or the global one for a group too rare to have its own.
func (d *DistTable) group(f *features.Features) *dist.Empirical {
	if e, ok := d.tables[distKeyOf(f)]; ok {
		return e
	}
	return d.global
}

// --- Training by name ---------------------------------------------------------

// Names lists the model families Train accepts.
func Names() []string { return []string{"oracle", "gbdt", "km", "dist"} }

// Train fits the named model family on the records: the one name-to-trainer
// switch behind the facade and the CLIs. trees sizes the GBDT ensemble and is
// ignored by the other families; "oracle" needs no training and ignores the
// records too.
func Train(name string, records []trace.Record, trees int) (Predictor, error) {
	switch name {
	case "oracle":
		return Oracle{}, nil
	case "gbdt":
		return TrainGBDT(records, gbdt.Params{Trees: trees})
	case "km":
		// Table 4's stratified KM is the distribution table (see DistTable).
		dt, err := TrainDistTable(records)
		if err != nil {
			return nil, err
		}
		dt.ModelName = "stratified-km"
		return dt, nil
	case "dist":
		return TrainDistTable(records)
	}
	return nil, fmt.Errorf("model: unknown model kind %q (want %s)", name, strings.Join(Names(), "|"))
}
