// E6b — parallel fault-injection campaign engine (paper Sections I–III).
//
// Fans the full injection space (workload × cycle × register × bit, for
// the identical-CCF and single-fault models) over a thread pool with
// deterministic per-site seeding: the BENCH_faultsim.json report is
// bit-identical for any --threads value at a fixed --seed.
//
// Usage: bench_faultsim_campaign [options]
//   --workloads=a,b,c  comma-separated registry names, or "paper4" (default:
//                      bitcount,cubic,md5,quicksort), or "all" (Table I set)
//   --samples=N        injection cycles sampled per verdict class (default 12)
//   --registers=a,b    integer registers to flip (default 6,9,18)
//   --bits=a,b         bit positions to flip (default 2,17,40)
//   --scale=N          workload input scale (default 1)
//   --seed=N           campaign seed (default 1)
//   --threads=N        worker count; 0 = auto (default SAFEDM_BENCH_THREADS)
//   --engine=NAME      replay | checkpoint (default checkpoint); a pure
//                      performance knob — the report is bit-identical
//   --checkpoint-interval=N  cycles between checkpoints; 0 = auto
//   --json=PATH        report path (default BENCH_faultsim.json)
//   --no-single        skip the single-fault control model
//   --smoke            exit non-zero unless the campaign invariants hold:
//                      (a) single-fault injections never classify as CCF,
//                      (b) per workload, no-div-class CCF rate >= diverse,
//                      (c) no identical-fault injection at a no-div cycle
//                      is ever detected
//
// Fleet mode (sharded multi-process campaigns, merged by safedm-merge):
//   --shard=i/N        run only shard i of N (0-based), streaming durable
//                      partial aggregates to the shard log instead of JSON
//   --log=PATH         shard log path (default shard-<i>-of-<N>.shardlog)
//   --resume           continue an interrupted shard from its log's last
//                      durable record (also starts fresh if no log exists)
//   --flush-interval=K sites folded per durable log record (default 16)
//   --ref-cache=DIR    share reference-run warmup across shards via
//                      mmap-published trace snapshots in DIR
//   --write-manifest=PATH  write the fleet manifest for --shard-count
//                      shards (no injections are run) and exit
//   --shard-count=N    fleet size for --write-manifest (defaults to the
//                      N of --shard when given)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "safedm/common/check.hpp"
#include "safedm/common/log.hpp"
#include "safedm/common/thread_pool.hpp"
#include "safedm/faultsim/campaign.hpp"
#include "safedm/faultsim/shard.hpp"
#include "safedm/workloads/workloads.hpp"

using namespace safedm;
using namespace safedm::faultsim;

namespace {

constexpr char kUsage[] =
    "usage: bench_faultsim_campaign [--workloads=a,b|paper4|all] [--samples=N]\n"
    "                               [--registers=a,b] [--bits=a,b] [--scale=N] [--seed=N]\n"
    "                               [--threads=N] [--engine=replay|checkpoint]\n"
    "                               [--checkpoint-interval=N] [--json=PATH] [--no-single]\n"
    "                               [--smoke]\n"
    "                               [--shard=i/N] [--log=PATH] [--resume]\n"
    "                               [--flush-interval=K] [--ref-cache=DIR]\n"
    "                               [--write-manifest=PATH] [--shard-count=N]\n";

std::vector<std::string> split_csv(const char* arg) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = arg; *p; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void print_class(const char* workload, const char* label, const ClassAggregate& agg) {
  const Interval ci = agg.ccf_interval();
  const double mean_latency =
      agg.latency.total_samples()
          ? static_cast<double>(agg.latency.sample_sum()) / agg.latency.total_samples()
          : 0.0;
  std::printf("%-14s | %-11s %7llu %8llu %8llu %8llu %8llu | %6.1f%% [%5.1f,%5.1f] %9.0f\n",
              workload, label, static_cast<unsigned long long>(agg.count(Outcome::kMasked)),
              static_cast<unsigned long long>(agg.count(Outcome::kDetected)),
              static_cast<unsigned long long>(agg.count(Outcome::kCcf)),
              static_cast<unsigned long long>(agg.count(Outcome::kCrashed)),
              static_cast<unsigned long long>(agg.count(Outcome::kHung)),
              100.0 * agg.ccf_rate(), 100.0 * ci.lo, 100.0 * ci.hi, mean_latency);
}

}  // namespace

int main(int argc, char** argv) {
  EngineConfig config;
  config.threads = bench_thread_count();
  std::string json_path = "BENCH_faultsim.json";
  bool smoke = false;
  bool have_shard = false;
  ShardRunConfig shard_run;
  std::string manifest_path;
  u32 manifest_shards = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--workloads=", 12) == 0) {
      const char* value = arg + 12;
      if (std::strcmp(value, "all") == 0) {
        config.workloads.clear();
        for (const auto& info : workloads::registry()) config.workloads.push_back(info.name);
      } else if (std::strcmp(value, "paper4") != 0) {
        config.workloads = split_csv(value);
      }
    } else if (std::strncmp(arg, "--samples=", 10) == 0) {
      config.samples_per_class = bench::parse_u32("--samples", arg + 10, kUsage, 1, 100'000);
    } else if (std::strncmp(arg, "--registers=", 12) == 0) {
      // x0 is hardwired zero and x-numbers stop at 31; an out-of-range
      // register must be a hard error, not a silent u8 wrap (the old atoi
      // path turned --registers=256 into injections against x0, i.e. a
      // campaign that faults nothing).
      config.registers.clear();
      for (const std::string& r : split_csv(arg + 12))
        config.registers.push_back(static_cast<u8>(bench::parse_u64("--registers", r, kUsage, 1, 31)));
      if (config.registers.empty())
        bench::cli_fail("--registers", arg + 12, "a non-empty list of registers in [1, 31]", kUsage);
    } else if (std::strncmp(arg, "--bits=", 7) == 0) {
      config.bits.clear();
      for (const std::string& b : split_csv(arg + 7))
        config.bits.push_back(static_cast<unsigned>(bench::parse_u64("--bits", b, kUsage, 0, 63)));
      if (config.bits.empty())
        bench::cli_fail("--bits", arg + 7, "a non-empty list of bit positions in [0, 63]", kUsage);
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      config.scale = bench::parse_u32("--scale", arg + 8, kUsage, 1, 1024);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      config.seed = bench::parse_u64("--seed", arg + 7, kUsage);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.threads = bench::parse_u32("--threads", arg + 10, kUsage, 0, 4096);
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      const char* value = arg + 9;
      if (std::strcmp(value, "replay") == 0) {
        config.engine = InjectionEngine::kReplay;
      } else if (std::strcmp(value, "checkpoint") == 0) {
        config.engine = InjectionEngine::kCheckpoint;
      } else {
        std::fprintf(stderr, "unknown engine: %s (replay|checkpoint)\n%s", value, kUsage);
        return 2;
      }
    } else if (std::strncmp(arg, "--checkpoint-interval=", 22) == 0) {
      config.checkpoint_interval = bench::parse_u64("--checkpoint-interval", arg + 22, kUsage);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--no-single") == 0) {
      config.single_fault = false;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      const std::string value = arg + 8;
      const std::size_t slash = value.find('/');
      if (slash == std::string::npos)
        bench::cli_fail("--shard", value, "a fraction i/N with 0 <= i < N", kUsage);
      config.shard.count =
          bench::parse_u32("--shard", value.substr(slash + 1), kUsage, 1, kMaxShards);
      config.shard.index =
          bench::parse_u32("--shard", value.substr(0, slash), kUsage, 0, kMaxShards - 1);
      if (config.shard.index >= config.shard.count)
        bench::cli_fail("--shard", value, "a fraction i/N with 0 <= i < N", kUsage);
      have_shard = true;
    } else if (std::strncmp(arg, "--log=", 6) == 0) {
      shard_run.log_path = arg + 6;
    } else if (std::strcmp(arg, "--resume") == 0) {
      shard_run.resume = true;
    } else if (std::strncmp(arg, "--flush-interval=", 17) == 0) {
      shard_run.flush_interval =
          bench::parse_u64("--flush-interval", arg + 17, kUsage, 1, 1'000'000);
    } else if (std::strncmp(arg, "--ref-cache=", 12) == 0) {
      shard_run.ref_cache_dir = arg + 12;
    } else if (std::strncmp(arg, "--write-manifest=", 17) == 0) {
      manifest_path = arg + 17;
    } else if (std::strncmp(arg, "--shard-count=", 14) == 0) {
      manifest_shards = bench::parse_u32("--shard-count", arg + 14, kUsage, 1, kMaxShards);
    } else {
      std::fprintf(stderr, "unknown option: %s\n%s", arg, kUsage);
      return 2;
    }
  }

  Logger::instance().set_level(LogLevel::kInfo);  // per-workload progress lines

  if (smoke && (have_shard || !manifest_path.empty())) {
    std::fprintf(stderr, "--smoke needs the single-process campaign (no --shard / "
                         "--write-manifest)\n%s", kUsage);
    return 2;
  }

  if (!manifest_path.empty()) {
    const u32 shards = manifest_shards != 0 ? manifest_shards
                       : have_shard         ? config.shard.count
                                            : 0;
    if (shards == 0) {
      std::fprintf(stderr, "--write-manifest needs --shard-count=N (or --shard=i/N)\n%s",
                   kUsage);
      return 2;
    }
    try {
      const ShardManifest manifest =
          build_manifest(config, shards, shard_run.ref_cache_dir);
      write_manifest_file(manifest_path, manifest);
      std::printf("wrote manifest %s: %u shards, %llu sites\n", manifest_path.c_str(), shards,
                  static_cast<unsigned long long>(manifest.total_sites));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  if (have_shard) {
    if (shard_run.log_path.empty()) {
      shard_run.log_path = "shard-" + std::to_string(config.shard.index) + "-of-" +
                           std::to_string(config.shard.count) + ".shardlog";
    }
    shard_run.engine = config;
    try {
      const ShardRunResult result = run_shard(shard_run);
      std::printf("shard %u/%u: %llu/%llu sites durable (%llu run now%s) -> %s\n",
                  config.shard.index, config.shard.count,
                  static_cast<unsigned long long>(result.resumed_at + result.executed),
                  static_cast<unsigned long long>(result.shard_sites),
                  static_cast<unsigned long long>(result.executed),
                  result.complete ? ", complete" : "", shard_run.log_path.c_str());
      return result.complete ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  const EngineReport report = run_engine(config);

  std::printf("\nfault-injection campaign: seed %llu, %llu injections\n",
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(report.injections));
  std::printf("%-14s | %-11s %7s %8s %8s %8s %8s | %s\n", "benchmark", "class", "masked",
              "detected", "CCF", "crashed", "hung", "CCF% [95% CI]  latency");
  for (const WorkloadReport& wr : report.workloads) {
    print_class(wr.name.c_str(), "no-div", wr.identical[1]);
    print_class("", "diverse", wr.identical[0]);
    if (config.single_fault) print_class("", "single", wr.single);
  }

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 2;
  }
  write_report_json(report, json);
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!smoke) return 0;

  // Smoke gate. (a) is the structural redundancy guarantee: one faulted
  // core can never make both results agree on a wrong value. (b) is the
  // paper's Section III-B claim: SafeDM's no-diversity verdict marks the
  // cycles where an identical double fault is most likely to escape as a
  // CCF, so the no-div-class rate must dominate the diverse-class rate.
  // (c) is that claim's hard edge: at a no-diversity cycle an identical
  // double fault lands on identical state, so output comparison can never
  // see the two results differ.
  int failures = 0;
  for (const WorkloadReport& wr : report.workloads) {
    if (wr.nodiv_pool == 0) {
      // A workload with no no-diversity cycles cannot exercise claim (b);
      // requiring a nonempty pool keeps the gate from passing vacuously.
      std::fprintf(stderr, "SMOKE FAIL %s: no no-diversity cycles to sample "
                           "(pick a workload with a nonzero no-div pool)\n",
                   wr.name.c_str());
      ++failures;
      continue;
    }
    if (config.single_fault && wr.single.count(Outcome::kCcf) != 0) {
      std::fprintf(stderr, "SMOKE FAIL %s: %llu single-fault injections classified as CCF\n",
                   wr.name.c_str(),
                   static_cast<unsigned long long>(wr.single.count(Outcome::kCcf)));
      ++failures;
    }
    if (wr.identical[1].ccf_rate() < wr.identical[0].ccf_rate()) {
      std::fprintf(stderr, "SMOKE FAIL %s: no-div CCF rate %.3f < diverse CCF rate %.3f\n",
                   wr.name.c_str(), wr.identical[1].ccf_rate(), wr.identical[0].ccf_rate());
      ++failures;
    }
    if (wr.identical[1].count(Outcome::kDetected) != 0) {
      std::fprintf(stderr, "SMOKE FAIL %s: %llu identical-fault injections at no-div cycles "
                           "were detected\n",
                   wr.name.c_str(),
                   static_cast<unsigned long long>(wr.identical[1].count(Outcome::kDetected)));
      ++failures;
    }
  }
  if (failures == 0) std::printf("smoke invariants hold on all %zu workloads\n",
                                 report.workloads.size());
  return failures == 0 ? 0 : 1;
}
