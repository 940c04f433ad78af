#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it, from the root of
# a checkout:
#   bash bench/e2e/run.sh --workload hot --seed 1 --seconds 10 --trace 0
# Arguments go to main.exe unchanged (see README.md). Build output goes
# to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
