#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources, then runs it
# with the given arguments. Run from the repository root:
#
#   bash itua_bench/run.sh --workload fig3_sweep --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the harness's last stdout line is its
# result. The dune cache is off so nothing is written outside the
# checkout.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./itua_bench/itua_bench.exe 1>&2
exec ./_build/default/itua_bench/itua_bench.exe "$@"
