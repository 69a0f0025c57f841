// safedm-e2e command line. See README.md for the metrics and workloads.
//
//   safedm-e2e [--seed N] [--rounds N] [--quick] [--out FILE]
//       Suite: N interleaved rounds of every workload plus one traced rep
//       each; prints every metric and writes the results JSON.
//   safedm-e2e --workload W --seed N --seconds S --trace 0|1 [--quick]
//       One workload for S seconds; the last stdout line is one JSON
//       object with the BENCHMARK.json end-to-end (--trace 0) or
//       per-layer (--trace 1) metrics.
//   safedm-e2e --compare A.json B.json
//       Per workload x metric verdicts between two suite results.
//   safedm-e2e selftest
//       Quick checks of every mode (the ctest entry point).
//
// Common options: --spec FILE (default BENCHMARK.json) and --trace-dir
// DIR (default build/e2e) for trace and scratch files. Options take
// either `--key value` or `--key=value`.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "e2e.hpp"

namespace {

using safedm::u64;

constexpr char kUsage[] =
    "usage: safedm-e2e [--seed N] [--rounds N] [--quick] [--out FILE]\n"
    "       safedm-e2e --workload W --seed N --seconds S --trace 0|1 [--quick]\n"
    "       safedm-e2e --compare A.json B.json\n"
    "       safedm-e2e selftest\n"
    "common: [--spec BENCHMARK.json] [--trace-dir build/e2e]\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "safedm-e2e: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

u64 parse_u64(const std::string& key, const std::string& text, u64 lo, u64 hi) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0 || v < lo || v > hi)
    usage_error(key + " expects an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + text + "'");
  return v;
}

std::string self_exe() {
  std::string path(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", path.data(), path.size() - 1);
  if (n <= 0) usage_error("cannot resolve /proc/self/exe");
  path.resize(static_cast<std::size_t>(n));
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safedm::e2e;

  static const std::vector<std::string> kFlags{"--traced", "--quick", "--probes",
                                               "--setup-only"};
  static const std::vector<std::string> kKeys{"--seed",  "--rounds", "--out",       "--workload",
                                              "--seconds", "--trace", "--spec",     "--trace-dir",
                                              "--fault-pass"};
  std::string command;
  std::map<std::string, std::string> opts;
  std::vector<std::string> compare;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i == 1 && (arg == "rep" || arg == "selftest")) {
      command = arg;
      continue;
    }
    if (arg == "--compare") {
      if (i + 2 >= argc) usage_error("--compare needs two result files");
      compare = {argv[i + 1], argv[i + 2]};
      i += 2;
      continue;
    }
    if (std::find(kFlags.begin(), kFlags.end(), arg) != kFlags.end()) {
      opts[arg] = "1";
      continue;
    }
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("missing value for " + arg);
    }
    if (std::find(kKeys.begin(), kKeys.end(), arg) == kKeys.end())
      usage_error("unknown option " + arg);
    opts[arg] = value;
  }
  const auto get = [&](const char* key, const std::string& fallback) {
    const auto it = opts.find(key);
    return it == opts.end() ? fallback : it->second;
  };

  try {
    RunnerOptions ro;
    ro.self_exe = self_exe();
    ro.spec_path = get("--spec", "BENCHMARK.json");
    ro.trace_dir = get("--trace-dir", "build/e2e");
    ro.seed = parse_u64("--seed", get("--seed", "1"), 0, ~u64{0});
    ro.quick = opts.count("--quick") != 0;
    if (opts.count("--fault-pass"))
      ro.fault_pass = static_cast<int>(parse_u64("--fault-pass", opts["--fault-pass"], 0, 1 << 20));

    if (command == "rep") {
      RepOptions o;
      o.workload = get("--workload", "");
      o.seed = ro.seed;
      o.traced = opts.count("--traced") != 0;
      o.quick = ro.quick;
      o.probes = opts.count("--probes") != 0;
      o.setup_only = opts.count("--setup-only") != 0;
      o.fault_pass = ro.fault_pass;
      o.trace_dir = get("--trace-dir", "");
      const RepResult rep = run_rep(o);
      std::printf("%s\n", rep_to_json(rep).c_str());
      return 0;
    }
    if (!compare.empty()) return run_compare(ro.spec_path, compare[0], compare[1]);
    std::filesystem::create_directories(ro.trace_dir);
    if (command == "selftest") return run_selftest(ro);
    if (opts.count("--workload")) {
      const u64 seconds = parse_u64("--seconds", get("--seconds", "10"), 1, 3600);
      const u64 trace = parse_u64("--trace", get("--trace", "0"), 0, 1);
      return run_workload(ro, opts["--workload"], static_cast<double>(seconds), trace == 1);
    }
    const unsigned rounds =
        static_cast<unsigned>(parse_u64("--rounds", get("--rounds", "6"), 1, 1000));
    const std::string out = get(
        "--out", (std::filesystem::path(ro.trace_dir) /
                  ("results_seed" + std::to_string(ro.seed) + (ro.quick ? "_quick" : "") + ".json"))
                     .string());
    return run_suite(ro, rounds, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "safedm-e2e: %s\n", e.what());
    return 2;
  }
}
