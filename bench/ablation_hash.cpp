// A2 — Signature compression ablation: raw concatenated-FIFO comparison
// (the paper's design) vs CRC32-compressed signatures. Compression shrinks
// the comparator but introduces a collision probability — a potential
// *false negative*, which the raw design excludes by construction. This
// bench measures verdict disagreement empirically and reports the
// hardware saving from the cost model.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "safedm/hwcost/hwcost.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

using namespace safedm;

namespace {

/// Observer running raw and CRC monitors side by side on the same frames.
struct DualMonitor : soc::CycleObserver {
  explicit DualMonitor(const monitor::SafeDmConfig& base)
      : raw([&] {
          monitor::SafeDmConfig c = base;
          c.compare = monitor::CompareMode::kRaw;
          c.start_enabled = true;
          return c;
        }()),
        crc([&] {
          monitor::SafeDmConfig c = base;
          c.compare = monitor::CompareMode::kCrc32;
          c.start_enabled = true;
          return c;
        }()) {}

  /// Compares the two monitors' verdicts for the current cycle.
  bool needs_per_cycle() const override { return true; }
  void on_group_cycles(u64 first, const core::CoreTapFrame* const* frames, unsigned n,
                       unsigned n_cycles) override {
    soc::deliver_pair_cycles(*this, first, frames, n, n_cycles);
  }
  void on_cycle(u64 cycle, const core::CoreTapFrame& f0, const core::CoreTapFrame& f1) {
    raw.on_cycle(cycle, f0, f1);
    crc.on_cycle(cycle, f0, f1);
    if (raw.lacking_diversity_now() != crc.lacking_diversity_now()) {
      // CRC collision: raw sees diversity the compressed compare missed.
      if (!raw.lacking_diversity_now()) ++false_negatives;
    }
  }

  monitor::SafeDm raw;
  monitor::SafeDm crc;
  u64 false_negatives = 0;
};

}  // namespace

int main() {
  std::printf("Compression ablation: raw vs CRC32 signatures (threads=%u)\n\n",
              bench::bench_pool().size());
  std::printf("%-16s %14s %14s %16s\n", "benchmark", "nodiv(raw)", "nodiv(crc)",
              "crc collisions");
  const char* names[] = {"bitcount", "cubic", "quicksort", "md5", "fft"};
  constexpr std::size_t kNumNames = 5;
  struct Row {
    u64 nodiv_raw = 0;
    u64 nodiv_crc = 0;
    u64 collisions = 0;
  };
  std::vector<Row> rows(kNumNames);
  // Each workload is an independent MpSoc + dual-monitor rig.
  bench::bench_pool().parallel_for(kNumNames, [&](std::size_t i) {
    soc::MpSoc soc{soc::SocConfig{}};
    DualMonitor dual{monitor::SafeDmConfig{}};
    soc.add_observer(&dual);
    soc.load_redundant(workloads::build(names[i], 1));
    soc.run(20'000'000);
    dual.raw.finalize();
    dual.crc.finalize();
    rows[i] = Row{dual.raw.counters().nodiv_cycles, dual.crc.counters().nodiv_cycles,
                  dual.false_negatives};
  });
  u64 total_collisions = 0;
  for (std::size_t i = 0; i < kNumNames; ++i) {
    std::printf("%-16s %14llu %14llu %16llu\n", names[i],
                static_cast<unsigned long long>(rows[i].nodiv_raw),
                static_cast<unsigned long long>(rows[i].nodiv_crc),
                static_cast<unsigned long long>(rows[i].collisions));
    total_collisions += rows[i].collisions;
  }

  monitor::SafeDmConfig paper;
  paper.data_fifo_depth = 8;
  paper.num_ports = 4;
  monitor::SafeDmConfig crc_cfg = paper;
  crc_cfg.compare = monitor::CompareMode::kCrc32;
  const auto raw_cost = hwcost::estimate(paper);
  const auto crc_cost = hwcost::estimate(crc_cfg);
  std::printf("\nHardware cost: raw %llu LUTs vs CRC %llu LUTs (%.1f%% saving)\n",
              static_cast<unsigned long long>(raw_cost.luts_total),
              static_cast<unsigned long long>(crc_cost.luts_total),
              100.0 * (1.0 - static_cast<double>(crc_cost.luts_total) / raw_cost.luts_total));
  std::printf("Observed CRC verdict collisions (potential false negatives): %llu\n",
              static_cast<unsigned long long>(total_collisions));
  std::printf("Trade-off: the paper's raw compare is false-negative-free by construction;\n"
              "compression buys area at a (rare but nonzero in principle) collision risk.\n");
  return 0;
}
