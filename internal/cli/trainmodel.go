package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/model/eval"
	"lava/internal/model/gbdt"
	"lava/internal/model/mlp"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// Trainmodel runs the trainmodel command (see cmd/trainmodel) with args,
// the command line without the program name. ctx is not read.
func Trainmodel(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trainmodel", stderr)
	var (
		tracePath = fs.String("trace", "", "trace file (required)")
		trees     = fs.Int("trees", 400, "GBDT trees")
		testFrac  = fs.Float64("test", 0.3, "test split fraction")
		seed      = fs.Int64("seed", 1, "split seed")
		all       = fs.Bool("all", false, "train all four model families (Table 4)")
		save      = fs.String("save", "", "save the trained GBDT model to this file ('-' for stdout)")
	)
	return run(fs, args, stderr, func() error {
		if *tracePath == "" {
			return errors.New("-trace is required")
		}
		if !(*testFrac > 0 && *testFrac < 1) {
			return fmt.Errorf("-test %v is outside (0, 1)", *testFrac)
		}
		if err := checkTrees(*trees); err != nil {
			return err
		}
		tr, err := trace.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		train, test := model.SplitRecords(tr.Records, *testFrac, *seed)
		fmt.Fprintf(stdout, "records: %d train / %d test\n", len(train), len(test))

		g, err := model.TrainGBDT(train, gbdt.Params{Trees: *trees})
		if err != nil {
			return err
		}
		if err := report(stdout, "gbdt", g, test); err != nil {
			return err
		}
		if *save != "" {
			if err := writeOut(*save, stdout, g.Save); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved GBDT model (%d trees) to %s\n", g.M.NumTrees(), *save)
		}
		if !*all {
			return nil
		}

		coxTrain := train[:min(len(train), 4000)]
		for _, fam := range []struct {
			name, short string
			train       func() (model.Predictor, error)
		}{
			{"mlp", "mlp", func() (model.Predictor, error) { return model.TrainMLP(train, mlp.Params{Seed: *seed}) }},
			{"stratified-km", "km", func() (model.Predictor, error) { return model.Train("km", train, 0) }},
			{"linear-cox", "cox", func() (model.Predictor, error) { return model.TrainCox(coxTrain) }},
		} {
			p, err := fam.train()
			if err != nil {
				// A family that cannot fit this trace is skipped, not fatal.
				fmt.Fprintf(stderr, "%s: %v\n", fam.short, err)
				continue
			}
			if err := report(stdout, fam.name, p, test); err != nil {
				return err
			}
		}
		return nil
	})
}

// report prints the Table 4 metrics of p on (up to 2000 of) the test
// records.
func report(w io.Writer, name string, p model.Predictor, test []trace.Record) error {
	evalSet := test[:min(len(test), 2000)]
	var predicted, actual []time.Duration
	for _, rec := range evalSet {
		vm := &cluster.VM{ID: rec.ID, Shape: rec.Shape, Feat: rec.Feat, TrueLifetime: rec.Lifetime}
		predicted = append(predicted, p.PredictRemaining(vm, 0))
		actual = append(actual, min(rec.Lifetime, simtime.CapLifetime))
	}
	ci, err := eval.CIndex(predicted, actual)
	if err != nil {
		return err
	}
	b, err := eval.Classify(predicted, actual, eval.LongThreshold)
	if err != nil {
		return err
	}
	mae, err := eval.MeanAbsLog10Error(predicted, actual)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s C-index %.3f  P %.3f  R %.3f  F1 %.3f  |log10 err| %.3f\n",
		name, ci, b.Precision(), b.Recall(), b.F1(), mae)
	return nil
}
