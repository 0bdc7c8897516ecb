// Command trainmodel trains lifetime models on a trace and reports the
// Table 4 comparison metrics (C-index, precision, recall, F1 at the 7-day
// threshold).
//
// Usage:
//
//	trainmodel -trace trace.jsonl                 # GBDT, report metrics
//	trainmodel -trace trace.jsonl -all            # all four model families
//	trainmodel -trace trace.jsonl -save model.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/model/cox"
	"lava/internal/model/eval"
	"lava/internal/model/gbdt"
	"lava/internal/model/mlp"
	"lava/internal/simtime"
	"lava/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (required)")
		trees     = flag.Int("trees", 400, "GBDT trees")
		testFrac  = flag.Float64("test", 0.3, "test split fraction")
		seed      = flag.Int64("seed", 1, "split seed")
		all       = flag.Bool("all", false, "train all four model families (Table 4)")
		save      = flag.String("save", "", "save the trained GBDT model to this file")
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}

	tr, err := trace.ReadFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	train, test := model.SplitRecords(tr.Records, *testFrac, *seed)
	fmt.Printf("records: %d train / %d test\n", len(train), len(test))

	g, err := model.TrainGBDT(train, gbdt.Params{Trees: *trees})
	if err != nil {
		fatal(err)
	}
	report("gbdt", g, test)
	if *save != "" {
		out, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := g.Save(out); err != nil {
			fatal(err)
		}
		out.Close()
		fmt.Printf("saved GBDT model (%d trees) to %s\n", g.M.NumTrees(), *save)
	}

	if *all {
		if m, err := model.TrainMLP(train, mlp.Params{Seed: *seed}); err == nil {
			report("mlp", m, test)
		} else {
			fmt.Fprintln(os.Stderr, "mlp:", err)
		}
		if k, err := model.TrainKM(train, nil); err == nil {
			report("stratified-km", k, test)
		} else {
			fmt.Fprintln(os.Stderr, "km:", err)
		}
		coxTrain := train
		if len(coxTrain) > 4000 {
			coxTrain = coxTrain[:4000]
		}
		if c, err := model.TrainCox(coxTrain, cox.Options{}); err == nil {
			report("linear-cox", c, test)
		} else {
			fmt.Fprintln(os.Stderr, "cox:", err)
		}
	}
}

func report(name string, p model.Predictor, test []trace.Record) {
	evalSet := test
	if len(evalSet) > 2000 {
		evalSet = evalSet[:2000]
	}
	var predicted, actual []time.Duration
	for _, rec := range evalSet {
		vm := &cluster.VM{ID: rec.ID, Shape: rec.Shape, Feat: rec.Feat, TrueLifetime: rec.Lifetime}
		predicted = append(predicted, p.PredictRemaining(vm, 0))
		lt := rec.Lifetime
		if lt > simtime.CapLifetime {
			lt = simtime.CapLifetime
		}
		actual = append(actual, lt)
	}
	ci, err := eval.CIndex(predicted, actual)
	if err != nil {
		fatal(err)
	}
	b, err := eval.Classify(predicted, actual, eval.LongThreshold)
	if err != nil {
		fatal(err)
	}
	mae, err := eval.MeanAbsLog10Error(predicted, actual)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-14s C-index %.3f  P %.3f  R %.3f  F1 %.3f  |log10 err| %.3f\n",
		name, ci, b.Precision(), b.Recall(), b.F1(), mae)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainmodel:", err)
	os.Exit(1)
}
