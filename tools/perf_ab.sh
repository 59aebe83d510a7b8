#!/usr/bin/env bash
# Same-machine A/B perf gate. Builds BASE (any git ref) in a temporary
# worktree, then runs the benchmark harness on BASE and on this checkout
# in alternating pairs of every workload in BENCHMARK.json (read with
# jq), each run as long as its run_seconds, and judges the two sets of
# runs with `itua_bench compare` (bounds from BENCHMARK.json). Run from
# anywhere inside the repository:
#
#   bash tools/perf_ab.sh origin/main
#
# Exits with compare's status: 1 if an end-to-end metric regressed past
# its bound on any workload, or if a benchmark check failed.
set -euo pipefail
base_ref=${1:?usage: tools/perf_ab.sh BASE}
pairs=10

root=$(git rev-parse --show-toplevel)
cd "$root"
# Every workload BENCHMARK.json declares.
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
# The run length the benchmark itself uses.
seconds=$(jq -r .run_seconds BENCHMARK.json)
work=$(mktemp -d)
trap 'rm -rf "$work"; git worktree prune' EXIT
git worktree add --quiet --detach "$work/base" "$base_ref"

# One untraced run of workload $2 on checkout $1; its result records are
# appended to $3. Build output goes to $work/build.log.
bench() {
  bash "$1/itua_bench/run.sh" --workload "$2" --seconds "$seconds" --trace 0 \
    2>>"$work/build.log" | grep '^{' >>"$3"
}

for i in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if ((i % 2)); then
      bench "$work/base" "$w" "$work/base.jsonl"
      bench "$root" "$w" "$work/change.jsonl"
    else
      bench "$root" "$w" "$work/change.jsonl"
      bench "$work/base" "$w" "$work/base.jsonl"
    fi
  done
  echo "pair $i/$pairs done" >&2
done

./_build/default/itua_bench/itua_bench.exe compare \
  "$work/base.jsonl" "$work/change.jsonl"
