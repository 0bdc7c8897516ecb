// Command tracegen generates synthetic production-like VM traces (JSONL).
//
// Usage:
//
//	tracegen -out trace.jsonl -hosts 160 -util 0.65 -days 49 -prefill 21 -seed 1
//	tracegen -out e2.jsonl -e2 -hosts 96 -days 14 -prefill 10
package main

import (
	"context"
	"os"

	"lava/internal/cli"
)

func main() {
	os.Exit(cli.Tracegen(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
