#!/usr/bin/env bash
# Run every workload with seeds 1..RUNS in each named set, one process
# per run, and print the runs as one JSON array for
#   main.exe compare FILE:SET1 FILE:SET2
# Within a seed the sets alternate, so host drift hits both alike.
#   bash bench/e2e/sweep.sh RUNS SECONDS SET... > results.json
set -euo pipefail
if [ $# -lt 3 ]; then
  echo "usage: sweep.sh RUNS SECONDS SET..." >&2
  exit 2
fi
runs=$1 seconds=$2
shift 2
here="$(dirname "${BASH_SOURCE[0]}")"
sep=""
echo "["
for w in $(bash "$here/run.sh" --list); do
  for seed in $(seq 1 "$runs"); do
    for set in "$@"; do
      line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
      printf '%s{"set": "%s", "workload": "%s", "seed": %d, "result": %s}' \
        "$sep" "$set" "$w" "$seed" "$line"
      sep=$',\n'
      echo "sweep: $set $w seed $seed done" >&2
    done
  done
done
printf '\n]\n'
