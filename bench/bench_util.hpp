// Shared pieces of the bench executables:
//
//   - the redundant-run experiment harness itself lives in src/scenario
//     (safedm/scenario/redundant.hpp), where the scenario runner uses it;
//     this header re-exports the pieces the remaining drivers call,
//   - hwvar-style repetition statistics (Measurement),
//   - checked CLI numeric parsing: every bench flag goes through
//     parse_u64/parse_u32/parse_double, which reject non-numeric,
//     negative, and out-of-range input with a clear error plus the
//     driver's usage line — the bare-atoi era of `--threads=abc`
//     silently meaning 0 is over.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

#include "safedm/scenario/redundant.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::bench {

using scenario::RunSpec;
using scenario::run_redundant;

/// Process-wide bench pool (sized by SAFEDM_BENCH_THREADS / hardware).
inline ThreadPool& bench_pool() { return scenario::shared_pool(); }

/// Repetition statistics for timed measurements (hwvar-style): collect one
/// sample per repetition, report best alongside min/median/stddev so the
/// JSON carries the host's noise level instead of silently folding it
/// away. For throughput-style metrics (higher is better) `best` is the
/// max; scheduling noise on a shared host only ever slows a run down, so
/// the best of K repetitions approximates the true speed while the
/// median/stddev expose how trustworthy that approximation was.
struct Measurement {
  std::vector<double> samples;

  void add(double sample) { samples.push_back(sample); }
  bool empty() const { return samples.empty(); }

  double best() const {
    return samples.empty() ? 0.0 : *std::max_element(samples.begin(), samples.end());
  }
  double min() const {
    return samples.empty() ? 0.0 : *std::min_element(samples.begin(), samples.end());
  }
  double median() const {
    if (samples.empty()) return 0.0;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t mid = sorted.size() / 2;
    return sorted.size() % 2 ? sorted[mid] : (sorted[mid - 1] + sorted[mid]) / 2.0;
  }
  double stddev() const {
    if (samples.size() < 2) return 0.0;
    double mean = 0;
    for (double s : samples) mean += s;
    mean /= static_cast<double>(samples.size());
    double var = 0;
    for (double s : samples) var += (s - mean) * (s - mean);
    return std::sqrt(var / static_cast<double>(samples.size() - 1));
  }
};

// ---- checked CLI parsing ---------------------------------------------------

/// Strict decimal u64: every character must be a digit, the value must
/// fit u64 and land in [lo, hi]. No sign, no whitespace, no prefixes —
/// `-1`, `0x10`, `12abc`, and `""` are all rejected (std::nullopt), where
/// atoi/strtoul would have silently produced 0 or a wrapped value.
inline std::optional<u64> try_parse_u64(std::string_view text, u64 lo = 0, u64 hi = ~u64{0}) {
  if (text.empty()) return std::nullopt;
  u64 value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (~u64{0} - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

/// Strict finite double (strtod grammar, fully consumed, finite result).
inline std::optional<double> try_parse_double(std::string_view text) {
  if (text.empty() || text.size() > 63) return std::nullopt;
  char buf[64];
  text.copy(buf, text.size());
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size() || !std::isfinite(value)) return std::nullopt;
  return value;
}

[[noreturn]] inline void cli_fail(const char* flag, std::string_view value,
                                  const char* expected, const char* usage) {
  std::fprintf(stderr, "error: %s expects %s, got \"%.*s\"\n%s", flag, expected,
               static_cast<int>(value.size()), value.data(), usage);
  std::exit(2);
}

/// Parse-or-die helpers for bench main()s: on bad input, print a
/// diagnostic naming the flag and the accepted range plus the driver's
/// usage text, and exit 2 before any simulation state is built.
inline u64 parse_u64(const char* flag, std::string_view value, const char* usage, u64 lo = 0,
                     u64 hi = ~u64{0}) {
  if (const std::optional<u64> parsed = try_parse_u64(value, lo, hi)) return *parsed;
  char expected[96];
  std::snprintf(expected, sizeof expected, "an integer in [%llu, %llu]",
                static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi));
  cli_fail(flag, value, expected, usage);
}

inline u32 parse_u32(const char* flag, std::string_view value, const char* usage, u32 lo = 0,
                     u32 hi = ~u32{0}) {
  return static_cast<u32>(parse_u64(flag, value, usage, lo, hi));
}

inline double parse_double(const char* flag, std::string_view value, const char* usage) {
  if (const std::optional<double> parsed = try_parse_double(value)) return *parsed;
  cli_fail(flag, value, "a finite number", usage);
}

}  // namespace safedm::bench
