#!/usr/bin/env bash
# Runs every workload once per seed and appends one line per run to a run
# file, the input of `bench/run.sh --compare`:
#
#   bash bench/sweep.sh a.jsonl 1 2 3 4 5 6 7 8 9 10
#   bash bench/sweep.sh b.jsonl 1 2 3 4 5 6 7 8 9 10
#   bash bench/run.sh --compare a.jsonl b.jsonl
#
# TRACE=1 sweeps the traced runs instead (compare ignores those).
set -euo pipefail

out=$1
shift
trace=${TRACE:-0}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for seed in "$@"; do
  for w in $workloads; do
    result=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    echo "{\"workload\":\"$w\",\"seed\":$seed,\"trace\":$trace,\"result\":$result}" >>"$out"
  done
done
