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
	"context"
	"os"

	"lava/internal/cli"
)

func main() {
	os.Exit(cli.Trainmodel(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
