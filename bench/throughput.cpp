// S2 — Monitor simulation throughput: simulated cycles/second of the
// per-cycle SafeDM datapath for the legacy (pre-incremental) comparison,
// the current exhaustive path, the incremental DiversityComparator, and
// the batched SIMD fast path (on_cycles), in raw and CRC32 compare modes.
// Emits machine-readable JSON (BENCH_throughput.json) so the perf
// trajectory is tracked PR over PR; bench/baselines/ holds the committed
// reference the perf_regression CTest diffs against.
//
// The "legacy" baseline is a faithful replica of the original per-cycle
// code: vector-of-vectors ring buffers indexed with modulo arithmetic, a
// full whole-signature comparison every cycle, (flat IS mode) a
// heap-allocated flatten per comparison, and its own byte-at-a-time
// CRC-32. It exists only here, as the fixed reference point the speedup is
// measured against.
//
// Frames are a deterministic synthetic stream (xoshiro-seeded). The
// headline "matched" scenario feeds both cores identical busy frames —
// the worst case for every comparator (no early exit) and the
// hardware-relevant steady state; the "divergent" scenario adds
// independent per-core holds and value divergence, exercising the
// comparator's realignment fallback (mid-chunk, for the batched path).
//
// Usage: bench_throughput [--cycles=N] [--reps=N] [--json=PATH] [--check]
//   --reps: repetitions per mode; the best is the headline number and
//   min/median/stddev land in the JSON (hwvar-style noise reporting).
//   --check exits nonzero if the incremental comparator is not faster
//   than the exhaustive path, the batched path loses its edge over the
//   per-cycle incremental one, or the CRC batched path is slower than (or
//   disagrees on nodiv with) per-cycle CRC incremental (the perf-smoke
//   CTest gate).
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "json_writer.hpp"
#include "safedm/common/rng.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/safedm/simd.hpp"

using namespace safedm;
namespace simd = safedm::monitor::simd;

namespace legacy {

// ---- pre-incremental SignatureGenerator + monitor datapath replica ------

// The pre-PR byte-at-a-time CRC-32 (same values as safedm::Crc32), kept
// private so the frozen baseline does not speed up along with it.
class Crc32 {
 public:
  void add(u64 word) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<u8>(word >> (8 * i)));
  }
  void add_byte(u8 byte) { crc_ = (crc_ >> 8) ^ kTable[(crc_ ^ byte) & 0xFFu]; }
  u32 value() const { return ~crc_; }

 private:
  static constexpr std::array<u32, 256> kTable = [] {
    std::array<u32, 256> table{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
      table[i] = c;
    }
    return table;
  }();
  u32 crc_ = 0xFFFFFFFFu;
};

// The pre-PR stage slot: `bool valid` plus padding. The padded layout is
// part of the baseline being measured — it forces the element-wise struct
// comparison the packed representation replaced.
struct LegacySlot {
  bool valid = false;
  u32 encoding = 0;

  bool operator==(const LegacySlot&) const = default;
};

struct Signature {
  explicit Signature(const monitor::SafeDmConfig& config) : config_(config) {
    fifos_.resize(config.num_ports);
    for (auto& fifo : fifos_) fifo.entries.assign(config.data_fifo_depth, {});
  }

  void capture(const core::CoreTapFrame& frame) {
    for (unsigned st = 0; st < core::kPipelineStages; ++st)
      for (unsigned lane = 0; lane < core::kMaxIssueWidth; ++lane)
        stages_[st][lane] = LegacySlot{frame.stage[st][lane].valid != 0,
                                       frame.stage[st][lane].encoding};
    if (frame.hold) return;
    for (unsigned p = 0; p < config_.num_ports; ++p) {
      PortFifo& fifo = fifos_[p];
      fifo.entries[fifo.head] = frame.port[p];
      fifo.head = (fifo.head + 1) % config_.data_fifo_depth;
    }
  }

  static bool data_equal(const Signature& a, const Signature& b) {
    const unsigned n = a.config_.data_fifo_depth;
    for (unsigned p = 0; p < a.config_.num_ports; ++p) {
      const PortFifo& fa = a.fifos_[p];
      const PortFifo& fb = b.fifos_[p];
      for (unsigned i = 0; i < n; ++i) {
        if (!(fa.entries[(fa.head + i) % n] == fb.entries[(fb.head + i) % n])) return false;
      }
    }
    return true;
  }

  static bool instruction_equal(const Signature& a, const Signature& b) {
    if (a.config_.is_mode == monitor::IsMode::kPerStage) return a.stages_ == b.stages_;
    const auto flatten = [](const Signature& s) {
      std::vector<u32> list;  // the per-cycle heap allocation this PR removed
      for (int st = core::kPipelineStages - 1; st >= 0; --st)
        for (unsigned lane = 0; lane < core::kMaxIssueWidth; ++lane)
          if (s.stages_[st][lane].valid) list.push_back(s.stages_[st][lane].encoding);
      return list;
    };
    return flatten(a) == flatten(b);
  }

  u32 data_crc() const {
    Crc32 crc;
    const unsigned n = config_.data_fifo_depth;
    for (const PortFifo& fifo : fifos_) {
      for (unsigned i = 0; i < n; ++i) {
        const core::PortTap& tap = fifo.entries[(fifo.head + i) % n];
        crc.add_byte(tap.enable ? 1 : 0);
        crc.add(tap.value);
      }
    }
    return crc.value();
  }

  u32 instruction_crc() const {
    Crc32 crc;
    for (const auto& stage : stages_) {
      for (const auto& slot : stage) {
        crc.add_byte(slot.valid ? 1 : 0);
        crc.add(slot.encoding);
      }
    }
    return crc.value();
  }

  struct PortFifo {
    std::vector<core::PortTap> entries;
    unsigned head = 0;
  };
  monitor::SafeDmConfig config_;
  std::vector<PortFifo> fifos_;
  std::array<std::array<LegacySlot, core::kMaxIssueWidth>, core::kPipelineStages> stages_{};
};

// Full pre-PR per-cycle datapath, including the bookkeeping the current
// SafeDm still performs (commit diff, run-length histograms, interrupt
// check) so the measured delta isolates the comparison strategy.
struct Monitor {
  explicit Monitor(const monitor::SafeDmConfig& config)
      : config_(config),
        sig0_(config),
        sig1_(config),
        enabled_(config.start_enabled),
        hist_nodiv_(Histogram::exponential(16)),
        hist_ds_(Histogram::exponential(16)),
        hist_is_(Histogram::exponential(16)) {}

  void on_cycle(u64 /*cycle*/, const core::CoreTapFrame& f0, const core::CoreTapFrame& f1) {
    sig0_.capture(f0);
    sig1_.capture(f1);
    inst_diff_.on_commits(f0.commits, f1.commits);

    seen_commit_[0] = seen_commit_[0] || f0.commits > 0;
    seen_commit_[1] = seen_commit_[1] || f1.commits > 0;
    const bool armed = !config_.arm_on_first_commit || (seen_commit_[0] && seen_commit_[1]);
    const bool both_running = !f0.halted && !f1.halted;
    if (!enabled_ || !both_running || !armed) return;
    ++monitored_;

    bool ds_match, is_match;
    if (config_.compare == monitor::CompareMode::kRaw) {
      ds_match = Signature::data_equal(sig0_, sig1_);
      is_match = Signature::instruction_equal(sig0_, sig1_);
    } else {
      ds_match = sig0_.data_crc() == sig1_.data_crc();
      is_match = sig0_.instruction_crc() == sig1_.instruction_crc();
    }
    const bool nodiv = ds_match && is_match;

    const auto track = [](bool condition, u64& run, u64& counter, Histogram& hist) {
      if (condition) {
        ++counter;
        ++run;
      } else if (run > 0) {
        hist.add(run);
        run = 0;
      }
    };
    track(ds_match, ds_run_, ds_match_, hist_ds_);
    track(is_match, is_run_, is_match_, hist_is_);
    track(nodiv, nodiv_run_, nodiv_, hist_nodiv_);

    if (inst_diff_.armed() && inst_diff_.diff() == 0) ++zero_stag_;

    bool fire = false;
    switch (config_.report) {
      case monitor::ReportMode::kInterruptFirst:
        fire = nodiv_ >= 1;
        break;
      case monitor::ReportMode::kInterruptThreshold:
        fire = nodiv_ >= config_.interrupt_threshold;
        break;
      case monitor::ReportMode::kPollOnly:
        break;
    }
    if (fire && !irq_pending_) irq_pending_ = true;
  }

  monitor::SafeDmConfig config_;
  Signature sig0_;
  Signature sig1_;
  monitor::InstructionDiff inst_diff_;
  bool enabled_;
  bool irq_pending_ = false;
  std::array<bool, 2> seen_commit_{false, false};
  u64 monitored_ = 0;
  u64 zero_stag_ = 0;
  u64 nodiv_ = 0;
  u64 ds_match_ = 0;
  u64 is_match_ = 0;
  u64 nodiv_run_ = 0;
  u64 ds_run_ = 0;
  u64 is_run_ = 0;
  Histogram hist_nodiv_;
  Histogram hist_ds_;
  Histogram hist_is_;
};

}  // namespace legacy

namespace {

/// Both representations of the same frame stream: interleaved pairs for
/// the per-cycle pumps, and the two contiguous per-core arrays on_cycles
/// consumes (the batched API takes one frame pointer per core).
struct Trace {
  struct FramePair {
    core::CoreTapFrame f0;
    core::CoreTapFrame f1;
  };
  std::vector<FramePair> pairs;
  std::vector<core::CoreTapFrame> f0;
  std::vector<core::CoreTapFrame> f1;

  std::size_t length() const { return pairs.size(); }
};

core::CoreTapFrame random_frame(Xoshiro256& rng) {
  core::CoreTapFrame f;
  for (unsigned s = 0; s < core::kPipelineStages; ++s)
    for (unsigned l = 0; l < core::kMaxIssueWidth; ++l)
      f.stage[s][l] = core::StageSlotTap{rng.chance(0.9), static_cast<u32>(rng.next())};
  for (unsigned p = 0; p < core::kMaxPorts; ++p)
    f.port[p] = core::PortTap{rng.chance(0.8), rng.next()};
  f.commits = static_cast<unsigned>(rng.below(3));
  return f;
}

/// `divergent` adds independent per-core holds (realignment pressure) and
/// occasional value divergence; otherwise both cores see identical frames
/// with an occasional common hold.
Trace make_trace(std::size_t length, bool divergent, u64 seed) {
  Xoshiro256 rng(seed);
  Trace trace;
  trace.pairs.resize(length);
  for (Trace::FramePair& pair : trace.pairs) {
    pair.f0 = random_frame(rng);
    pair.f0.hold = rng.chance(0.15);
    pair.f1 = pair.f0;
    if (divergent) {
      pair.f1.hold = rng.chance(0.15);  // independent: de-aligns the FIFOs
      if (rng.chance(0.3)) pair.f1 = random_frame(rng);
    }
    trace.f0.push_back(pair.f0);
    trace.f1.push_back(pair.f1);
  }
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct ModeResult {
  std::string name;
  double cycles_per_sec = 0;
  u64 nodiv = 0;  // consumed so the compiler cannot elide the work
};

/// Per-mode repetition statistics; the headline number is the best rep.
struct ModeStats {
  std::string name;
  bench::Measurement meas;
  u64 nodiv = 0;
};

unsigned g_reps = 5;

template <typename PumpFn>
ModeResult measure(const std::string& name, u64 cycles, PumpFn&& pump) {
  const auto start = std::chrono::steady_clock::now();
  const u64 nodiv = pump(cycles);
  const double elapsed = seconds_since(start);
  return ModeResult{name, elapsed > 0 ? static_cast<double>(cycles) / elapsed : 0, nodiv};
}

monitor::SafeDmConfig bench_config(monitor::CompareMode compare) {
  monitor::SafeDmConfig config;
  config.num_ports = 3;
  config.data_fifo_depth = 4;
  config.compare = compare;
  config.start_enabled = true;
  config.arm_on_first_commit = false;
  return config;
}

ModeResult run_safedm(const std::string& name, u64 cycles, const Trace& trace,
                      monitor::CompareMode compare, bool incremental) {
  return measure(name, cycles, [&](u64 n) {
    monitor::SafeDmConfig config = bench_config(compare);
    config.incremental_compare = incremental;
    monitor::SafeDm dm(config);
    const std::size_t len = trace.length();
    for (u64 c = 0, i = 0; c < n; ++c) {
      const Trace::FramePair& pair = trace.pairs[i];
      if (++i == len) i = 0;  // no per-cycle modulo: it would dwarf the DUT
      dm.on_cycle(c, pair.f0, pair.f1);
    }
    return dm.counters().nodiv_cycles;
  });
}

/// Batched pump: the whole trace in one on_cycles call per lap, the way
/// MpSoc's observer batching (or a bench rig) hands frames over. The
/// monitor chunks internally at 64 cycles.
ModeResult run_safedm_batched(const std::string& name, u64 cycles, const Trace& trace,
                              monitor::CompareMode compare, simd::Kernel kernel) {
  return measure(name, cycles, [&](u64 n) {
    const simd::Kernel previous = simd::force_kernel(kernel);
    monitor::SafeDmConfig config = bench_config(compare);
    config.incremental_compare = true;
    monitor::SafeDm dm(config);
    const u64 len = trace.length();
    for (u64 c = 0; c < n;) {
      const unsigned m = static_cast<unsigned>(len < n - c ? len : n - c);
      dm.on_cycles(c, trace.f0.data(), trace.f1.data(), m);
      c += m;
    }
    simd::force_kernel(previous);
    return dm.counters().nodiv_cycles;
  });
}

ModeResult run_legacy(const std::string& name, u64 cycles, const Trace& trace,
                      monitor::CompareMode compare) {
  return measure(name, cycles, [&](u64 n) {
    legacy::Monitor dm(bench_config(compare));
    const std::size_t len = trace.length();
    for (u64 c = 0, i = 0; c < n; ++c) {
      const Trace::FramePair& pair = trace.pairs[i];
      if (++i == len) i = 0;
      dm.on_cycle(c, pair.f0, pair.f1);
    }
    return dm.nodiv_;
  });
}

}  // namespace

int main(int argc, char** argv) {
  constexpr char kUsage[] =
      "usage: bench_throughput [--cycles=N] [--reps=N] [--json=PATH] [--check]\n";
  u64 cycles = 2'000'000;
  std::string json_path = "BENCH_throughput.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cycles=", 9) == 0)
      cycles = bench::parse_u64("--cycles", argv[i] + 9, kUsage, 1);
    else if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strncmp(argv[i], "--reps=", 7) == 0)
      g_reps = bench::parse_u32("--reps", argv[i] + 7, kUsage, 1, 1000);
    else if (std::strcmp(argv[i], "--check") == 0) check = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n%s", argv[i], kUsage);
      return 2;
    }
  }

  // 64 pairs ≈ 27 KB: L1-resident, so trace fetch does not drown the
  // datapath under measurement.
  const Trace matched = make_trace(64, /*divergent=*/false, 0x5AFE0001);
  const Trace divergent = make_trace(64, /*divergent=*/true, 0x5AFE0002);

  const simd::Kernel kernel = simd::active_kernel();

  // Warm-up pass so lazy page faults / frequency scaling don't skew the
  // first measurement.
  run_safedm_batched("warmup", std::min<u64>(cycles / 4 + 1, 200'000), matched,
                     monitor::CompareMode::kRaw, kernel);

  const std::vector<std::function<ModeResult()>> modes = {
      [&] { return run_legacy("raw_legacy", cycles, matched, monitor::CompareMode::kRaw); },
      [&] {
        return run_safedm("raw_exhaustive", cycles, matched, monitor::CompareMode::kRaw, false);
      },
      [&] {
        return run_safedm("raw_incremental", cycles, matched, monitor::CompareMode::kRaw, true);
      },
      [&] {
        return run_safedm_batched("raw_batched", cycles, matched, monitor::CompareMode::kRaw,
                                  kernel);
      },
      [&] {
        return run_safedm_batched("raw_batched_portable", cycles, matched,
                                  monitor::CompareMode::kRaw, simd::Kernel::kPortable);
      },
      [&] { return run_legacy("crc_legacy", cycles, matched, monitor::CompareMode::kCrc32); },
      [&] {
        return run_safedm("crc_exhaustive", cycles, matched, monitor::CompareMode::kCrc32, false);
      },
      [&] {
        return run_safedm("crc_incremental", cycles, matched, monitor::CompareMode::kCrc32, true);
      },
      [&] {
        return run_safedm_batched("crc_batched", cycles, matched, monitor::CompareMode::kCrc32,
                                  kernel);
      },
      [&] {
        return run_legacy("raw_legacy_divergent", cycles, divergent, monitor::CompareMode::kRaw);
      },
      [&] {
        return run_safedm("raw_incremental_divergent", cycles, divergent,
                          monitor::CompareMode::kRaw, true);
      },
      [&] {
        return run_safedm_batched("raw_batched_divergent", cycles, divergent,
                                  monitor::CompareMode::kRaw, kernel);
      },
  };
  // Repetitions are interleaved round-robin across modes so a burst of
  // background load cannot bias one mode's every repetition.
  std::vector<ModeStats> results(modes.size());
  for (unsigned rep = 0; rep < g_reps; ++rep) {
    for (std::size_t i = 0; i < modes.size(); ++i) {
      ModeResult r = modes[i]();
      results[i].meas.add(r.cycles_per_sec);
      results[i].name = std::move(r.name);
      results[i].nodiv = r.nodiv;
    }
  }

  const auto find = [&](const char* name) -> const ModeStats& {
    for (const ModeStats& r : results)
      if (r.name == name) return r;
    std::fprintf(stderr, "missing mode %s\n", name);
    std::exit(2);
  };
  const auto best = [&](const char* name) { return find(name).meas.best(); };
  const double raw_vs_legacy = best("raw_incremental") / best("raw_legacy");
  const double raw_vs_exhaustive = best("raw_incremental") / best("raw_exhaustive");
  const double crc_vs_legacy = best("crc_incremental") / best("crc_legacy");
  const double crc_vs_exhaustive = best("crc_incremental") / best("crc_exhaustive");
  const double crc_batched_vs_legacy = best("crc_batched") / best("crc_legacy");
  const double crc_batched_vs_incremental = best("crc_batched") / best("crc_incremental");
  const double batched_vs_incremental = best("raw_batched") / best("raw_incremental");
  const double batched_portable_vs_incremental =
      best("raw_batched_portable") / best("raw_incremental");
  const double batched_vs_legacy = best("raw_batched") / best("raw_legacy");
  const double batched_portable_vs_legacy = best("raw_batched_portable") / best("raw_legacy");
  const double batched_divergent_vs_incremental =
      best("raw_batched_divergent") / best("raw_incremental_divergent");

  std::printf(
      "Monitor throughput (simulated cycles/sec, %llu cycles x %u reps, geometry m=3 n=4, "
      "kernel %s)\n\n",
      static_cast<unsigned long long>(cycles), g_reps, simd::kernel_name(kernel));
  std::printf("%-28s %16s %16s %12s %12s\n", "mode", "best c/s", "median c/s", "stddev",
              "nodiv");
  for (const ModeStats& r : results)
    std::printf("%-28s %16.0f %16.0f %12.0f %12llu\n", r.name.c_str(), r.meas.best(),
                r.meas.median(), r.meas.stddev(), static_cast<unsigned long long>(r.nodiv));
  std::printf("\nspeedup raw incremental vs legacy (pre-PR):  %.2fx\n", raw_vs_legacy);
  std::printf("speedup raw incremental vs exhaustive:       %.2fx\n", raw_vs_exhaustive);
  std::printf("speedup raw batched vs incremental:          %.2fx\n", batched_vs_incremental);
  std::printf("speedup raw batched (portable) vs increm.:   %.2fx\n",
              batched_portable_vs_incremental);
  std::printf("speedup raw batched vs legacy:               %.2fx\n", batched_vs_legacy);
  std::printf("speedup raw batched (portable) vs legacy:    %.2fx\n",
              batched_portable_vs_legacy);
  std::printf("speedup raw batched divergent vs increm.:    %.2fx\n",
              batched_divergent_vs_incremental);
  std::printf("speedup crc incremental vs legacy (pre-PR):  %.2fx\n", crc_vs_legacy);
  std::printf("speedup crc incremental vs exhaustive:       %.2fx\n", crc_vs_exhaustive);
  std::printf("speedup crc batched vs legacy (pre-PR):      %.2fx\n", crc_batched_vs_legacy);
  std::printf("speedup crc batched vs incremental:          %.2fx\n",
              crc_batched_vs_incremental);

  bench::JsonWriter json;
  json.begin_object();
  json.prop("schema", "safedm.bench.throughput/v2");
  json.prop("simd_kernel", simd::kernel_name(kernel));
  json.key("geometry").begin_object();
  json.prop("num_ports", 3)
      .prop("data_fifo_depth", 4)
      .prop("pipeline_stages", core::kPipelineStages)
      .prop("issue_width", core::kMaxIssueWidth);
  json.end_object();
  json.prop("cycles", cycles);
  json.prop("reps", g_reps);
  json.key("modes").begin_object();
  for (const ModeStats& r : results) {
    json.key(r.name).begin_object();
    json.prop("cycles_per_sec", r.meas.best(), 1)
        .prop("min", r.meas.min(), 1)
        .prop("median", r.meas.median(), 1)
        .prop("stddev", r.meas.stddev(), 1)
        .prop("nodiv", r.nodiv);
    json.end_object();
  }
  json.end_object();
  json.key("speedups").begin_object();
  json.prop("raw_incremental_vs_legacy", raw_vs_legacy, 3)
      .prop("raw_incremental_vs_exhaustive", raw_vs_exhaustive, 3)
      .prop("raw_batched_vs_incremental", batched_vs_incremental, 3)
      .prop("raw_batched_portable_vs_incremental", batched_portable_vs_incremental, 3)
      .prop("raw_batched_vs_legacy", batched_vs_legacy, 3)
      .prop("raw_batched_portable_vs_legacy", batched_portable_vs_legacy, 3)
      .prop("raw_batched_divergent_vs_incremental", batched_divergent_vs_incremental, 3)
      .prop("crc_incremental_vs_legacy", crc_vs_legacy, 3)
      .prop("crc_incremental_vs_exhaustive", crc_vs_exhaustive, 3)
      .prop("crc_batched_vs_legacy", crc_batched_vs_legacy, 3);
  json.end_object();
  json.end_object();
  if (json.write_file(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }

  if (check) {
    if (raw_vs_exhaustive < 1.0) {
      std::fprintf(stderr,
                   "PERF-SMOKE FAIL: incremental comparator slower than exhaustive "
                   "(%.2fx)\n",
                   raw_vs_exhaustive);
      return 1;
    }
    if (batched_vs_incremental < 1.5) {
      std::fprintf(stderr,
                   "PERF-SMOKE FAIL: batched path lost its edge over per-cycle "
                   "incremental (%.2fx, want >= 1.5x)\n",
                   batched_vs_incremental);
      return 1;
    }
    // The PR-level acceptance bars: the delivered hot path (SIMD + batched)
    // must be >= 3x the pre-PR incremental path (the legacy replica), and
    // the portable-u64 kernel alone >= 1.5x that same baseline.
    if (batched_vs_legacy < 3.0) {
      std::fprintf(stderr,
                   "PERF-SMOKE FAIL: batched path below 3x the pre-PR incremental "
                   "baseline (%.2fx)\n",
                   batched_vs_legacy);
      return 1;
    }
    if (batched_portable_vs_legacy < 1.5) {
      std::fprintf(stderr,
                   "PERF-SMOKE FAIL: portable batched path below 1.5x the pre-PR "
                   "incremental baseline (%.2fx)\n",
                   batched_portable_vs_legacy);
      return 1;
    }
    if (crc_batched_vs_incremental < 1.0) {
      std::fprintf(stderr,
                   "PERF-SMOKE FAIL: CRC batched path slower than per-cycle CRC "
                   "incremental (%.2fx)\n",
                   crc_batched_vs_incremental);
      return 1;
    }
    if (find("crc_batched").nodiv != find("crc_incremental").nodiv) {
      std::fprintf(stderr, "PERF-SMOKE FAIL: CRC batched nodiv %llu != incremental %llu\n",
                   static_cast<unsigned long long>(find("crc_batched").nodiv),
                   static_cast<unsigned long long>(find("crc_incremental").nodiv));
      return 1;
    }
    std::printf(
        "perf-smoke OK: incremental %.2fx vs exhaustive, batched %.2fx vs incremental, "
        "batched %.2fx (portable %.2fx) vs pre-PR baseline, crc batched %.2fx vs "
        "incremental\n",
        raw_vs_exhaustive, batched_vs_incremental, batched_vs_legacy,
        batched_portable_vs_legacy, crc_batched_vs_incremental);
  }
  return 0;
}
