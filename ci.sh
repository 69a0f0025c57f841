#!/usr/bin/env bash
# CI entry point. Stages:
#   ./ci.sh            default build + full ctest, then an ASan+UBSan build
#                      running everything except the perf-labeled timing
#                      gates (sanitizer overhead makes wall-clock assertions
#                      meaningless; all label filtering is ctest -L based —
#                      see tests/CMakeLists.txt for the label scheme),
#                      then the analyze and e2e stages below
#   ./ci.sh analyze    cross-TU static analysis: safedm-lint v2 over src/ +
#                      bench/ (driven by the CMake-exported
#                      compile_commands.json — lock-discipline, layering DAG,
#                      snapshot-format drift, stale annotations, and the six
#                      single-file checks), a freshness diff of the checked-in
#                      tools/lint/snapshot_manifest.txt, plus clang-tidy with
#                      the repo .clang-tidy profile when clang-tidy is
#                      installed (skipped with a notice otherwise). Fails on
#                      any finding — see TESTING.md "Static analysis & TSan"
#   ./ci.sh lint       alias for analyze (historical name)
#   ./ci.sh perf       optimized build + the perf-labeled gates only: the
#                      throughput/checkpoint smoke runs plus bench_diff
#                      regression checks against the committed baselines in
#                      bench/baselines/ (machine-independent speedup ratios,
#                      20% tolerance — see EXPERIMENTS.md "Perf trajectory")
#   ./ci.sh fleet      default build + the sharded-campaign fleet gates only:
#                      the kill/resume & merge-determinism ctest battery
#                      (test_fleet) plus the CLI-level fleet_smoke script
#                      (3 shards, SIGKILL one, resume, merge, cmp against
#                      the single-process JSON)
#   ./ci.sh tsan       ThreadSanitizer build (SAFEDM_SANITIZE=thread preset)
#                      running the unit+property labels
#   ./ci.sh e2e        the end-to-end benchmark's self-test: configure and
#                      build bench/e2e (a CMake project of its own) into
#                      build/e2e, then ctest --test-dir build/e2e
#                      (e2e_selftest: every mode at quick sizes)
#   ./ci.sh coverage   gcov-instrumented build + ctest (perf excluded) +
#                      per-subsystem line-coverage summary, so fuzzer-driven
#                      coverage gains are measurable run over run; also runs
#                      the lint stage so the lint fixtures stay compiled
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

run_default_and_san() {
  echo "==> default build"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}"
  ctest --preset default -j "${JOBS}"

  echo "==> sanitizer build (ASan + UBSan)"
  cmake --preset san
  cmake --build --preset san -j "${JOBS}"
  ctest --preset san -j "${JOBS}"
}

run_analyze() {
  echo "==> analyze (safedm-lint v2: cross-TU checks over compile_commands.json)"
  cmake --preset default
  cmake --build --preset default --target safedm-lint -j "${JOBS}"
  ./build/tools/lint/safedm-lint --root . --compile-commands build/compile_commands.json

  echo "==> snapshot manifest freshness (tools/lint/snapshot_manifest.txt)"
  local tmp_manifest
  tmp_manifest="$(mktemp)"
  ./build/tools/lint/safedm-lint --root . --compile-commands build/compile_commands.json \
    --manifest "${tmp_manifest}" --update-manifest >/dev/null
  if ! diff -u tools/lint/snapshot_manifest.txt "${tmp_manifest}"; then
    rm -f "${tmp_manifest}"
    echo "error: snapshot manifest is stale; regenerate with" >&2
    echo "  build/tools/lint/safedm-lint --root . --compile-commands build/compile_commands.json --update-manifest" >&2
    exit 1
  fi
  rm -f "${tmp_manifest}"

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy (.clang-tidy profile, warnings as errors)"
    # Lint the repo's own sources only; compile_commands also lists
    # fixtures (seeded violations) and third-party-free test/bench code.
    mapfile -t tidy_files < <(
      python3 - <<'EOF' 2>/dev/null || \
        grep -o '"file": "[^"]*"' build/compile_commands.json | cut -d'"' -f4
import json
for e in json.load(open("build/compile_commands.json")):
    print(e["file"])
EOF
    )
    src_files=()
    for f in "${tidy_files[@]}"; do
      case "$f" in
        */src/*|*/bench/*) src_files+=("$f") ;;
      esac
    done
    clang-tidy -p build --quiet "${src_files[@]}"
  else
    echo "==> clang-tidy not installed; skipping (safedm-lint ran; install clang-tidy to enable)"
  fi
}

run_perf() {
  echo "==> perf gates (smoke benches + baseline regression diff)"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}"
  ctest --preset default -L perf
}

run_fleet() {
  echo "==> fleet gates (kill/resume + merge-determinism battery, CLI smoke)"
  cmake --preset default
  cmake --build --preset default -j "${JOBS}"
  ctest --preset default -R '^(ShardMerge|CrashResume)\.|^fleet_smoke$'
}

run_tsan() {
  echo "==> ThreadSanitizer build (unit + property labels)"
  cmake --preset tsan
  cmake --build --preset tsan -j "${JOBS}"
  ctest --preset tsan -j "${JOBS}"
}

run_e2e() {
  echo "==> end-to-end benchmark self-test (bench/e2e)"
  cmake -S bench/e2e -B build/e2e -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build/e2e -j "${JOBS}"
  ctest --test-dir build/e2e --output-on-failure
}

run_coverage() {
  echo "==> coverage build (gcov)"
  cmake --preset coverage
  cmake --build --preset coverage -j "${JOBS}"
  ctest --preset coverage -j "${JOBS}"

  echo "==> per-subsystem line coverage (src/*.cpp)"
  local root
  root="$(pwd)/src/"
  (
    cd build-cov
    find . -name '*.gcda' -print0 | xargs -0 gcov -n 2>/dev/null |
      awk -v root="${root}" '
        /^File /   { f = $2; gsub(/\x27/, "", f) }
        /^Lines executed:/ {
          if (index(f, root) == 1 && f ~ /\.cpp$/) {
            rest = substr(f, length(root) + 1)
            split(rest, parts, "/")
            sys = parts[1]
            split($0, a, ":"); split(a[2], b, "% of ")
            n = b[2] + 0
            lines[sys] += n
            hit[sys] += (b[1] + 0) * n / 100
          }
        }
        END {
          n = 0
          for (s in lines) keys[n++] = s
          for (i = 0; i < n; ++i)  # insertion sort: portable across awks
            for (j = i + 1; j < n; ++j)
              if (keys[j] < keys[i]) { t = keys[i]; keys[i] = keys[j]; keys[j] = t }
          printf "%-12s %8s %8s %8s\n", "subsystem", "lines", "covered", "percent"
          total = 0; thit = 0
          for (i = 0; i < n; ++i) {
            s = keys[i]
            printf "%-12s %8d %8d %7.1f%%\n", s, lines[s], hit[s], 100 * hit[s] / lines[s]
            total += lines[s]; thit += hit[s]
          }
          if (total > 0)
            printf "%-12s %8d %8d %7.1f%%\n", "TOTAL", total, thit, 100 * thit / total
        }'
  )
}

case "${STAGE}" in
  all)
    run_default_and_san
    run_analyze
    run_e2e
    ;;
  analyze | lint) run_analyze ;;
  perf) run_perf ;;
  fleet) run_fleet ;;
  tsan) run_tsan ;;
  e2e) run_e2e ;;
  coverage)
    run_coverage
    run_analyze
    ;;
  *)
    echo "unknown stage: ${STAGE} (expected: analyze, perf, fleet, tsan, e2e, or coverage)" >&2
    exit 2
    ;;
esac

echo "==> CI OK"
