#!/usr/bin/env bash
# Run every workload on each seed (default 1..10) and append the run
# outputs to a file that `-compare` reads:
#   bench/all.sh /tmp/a.txt            # untraced, seeds 1..10
#   TRACE=1 bench/all.sh /tmp/a.txt 1  # traced, seed 1
set -euo pipefail
out=$1
shift
seeds=${*:-1 2 3 4 5 6 7 8 9 10}
here=$(dirname "$0")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")
for seed in $seeds; do
	for w in play_f32 play_int8_delta origin_fetch prepare; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "${TRACE:-0}" >>"$out"
	done
done
