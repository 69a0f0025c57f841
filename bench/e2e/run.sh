#!/usr/bin/env bash
# End-to-end benchmark: builds safedm-e2e from this directory's CMake
# project into build/e2e, then runs it from the repository root.
#
#   bench/e2e/run.sh [--seed=N] [--rounds=N] [--quick]
#       every workload, interleaved rounds plus one traced rep each; prints
#       every metric and writes build/e2e/results_seed<N>.json
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the BENCHMARK.json result
#   bench/e2e/run.sh --compare A.json B.json
#       per workload x metric verdicts between two results files
#
# Build output goes to stderr, so stdout carries only the benchmark's.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/build/e2e"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "${build}" --target safedm-e2e -j "${jobs}" >&2

cd "${root}"
exec "${build}/safedm-e2e" --spec "${root}/BENCHMARK.json" --trace-dir "${build}" "$@"
