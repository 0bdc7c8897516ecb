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
// hashing VM IDs with the seed; testFrac of VMs land in the test set.
func SplitRecords(records []trace.Record, testFrac float64, seed int64) (train, test []trace.Record) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(records))
	nTest := int(testFrac * float64(len(records)))
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
// (Fig. 2). It is also the natural Go analogue of the Kaplan-Meier lookup
// table the authors describe trying first (§7).
type DistTable struct {
	ModelName string
	tables    map[distKey]*dist.Empirical
	global    *dist.Empirical
}

// distKey groups by the features that dominate importance in Fig. 11:
// category, shape, priority and admission policy. It is DefaultKey as a
// comparable struct, so a prediction looks its table up without building a
// string.
type distKey struct {
	VMCategory, VMShape, Priority string
	AdmissionPolicy               bool
}

func distKeyOf(f *features.Features) distKey {
	return distKey{f.VMCategory, f.VMShape, f.Priority, f.AdmissionPolicy}
}

// DefaultKey is the same grouping as a string, for the string-keyed strata
// of TrainKM.
func DefaultKey(f features.Features) string {
	adm := "q"
	if f.AdmissionPolicy {
		adm = "a"
	}
	return f.VMCategory + "|" + f.VMShape + "|" + f.Priority + "|" + adm
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
	e, ok := d.tables[distKeyOf(&vm.Feat)]
	if !ok {
		e = d.global
	}
	rem := e.CondExpRemaining(uptime)
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
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
		return TrainKM(records, nil)
	case "dist":
		return TrainDistTable(records)
	}
	return nil, fmt.Errorf("model: unknown model kind %q (want %s)", name, strings.Join(Names(), "|"))
}
