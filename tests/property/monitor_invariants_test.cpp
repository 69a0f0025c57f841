// Property fuzzing at the monitor level: run the full workload suite
// redundantly under many configurations and assert SafeDM's structural
// invariants on every run.
#include <gtest/gtest.h>

#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::monitor {
namespace {

struct Config {
  std::string workload;
  unsigned stagger;
  unsigned depth;
  IsMode is_mode;
};

void PrintTo(const Config& c, std::ostream* os) {
  *os << c.workload << "_s" << c.stagger << "_n" << c.depth << "_m"
      << static_cast<int>(c.is_mode);
}

std::vector<Config> make_configs() {
  std::vector<Config> configs;
  const char* names[] = {"bitcount", "quicksort", "cubic", "md5", "pm", "fft"};
  for (const char* name : names)
    for (unsigned stagger : {0u, 100u})
      for (unsigned depth : {2u, 8u})
        configs.push_back(Config{name, stagger, depth, IsMode::kPerStage});
  configs.push_back(Config{"iir", 0, 8, IsMode::kFlatList});
  configs.push_back(Config{"sha", 0, 8, IsMode::kFlatList});
  return configs;
}

class MonitorInvariants : public ::testing::TestWithParam<Config> {};

TEST_P(MonitorInvariants, HoldOnEveryRun) {
  const Config& config = GetParam();
  soc::MpSoc soc{soc::SocConfig{}};
  SafeDmConfig dm_config;
  dm_config.data_fifo_depth = config.depth;
  dm_config.is_mode = config.is_mode;
  dm_config.start_enabled = true;
  SafeDm dm(dm_config);
  soc.add_observer(&dm);

  // Per-cycle cross-check: SafeDM's "no diversity" verdict must imply the
  // current monitored frames are identical (no false negatives).
  struct Checker : soc::CycleObserver {
    SafeDm* dm = nullptr;
    u64 violations = 0;
    u64 nodiv_seen = 0;
    bool needs_per_cycle() const override { return true; }  // reads the live verdict
    void on_group_cycles(u64 first, const core::CoreTapFrame* const* frames, unsigned n,
                         unsigned n_cycles) override {
      soc::deliver_pair_cycles(*this, first, frames, n, n_cycles);
    }
    void on_cycle(u64, const core::CoreTapFrame& f0, const core::CoreTapFrame& f1) {
      if (!dm->lacking_diversity_now()) return;
      ++nodiv_seen;
      if (!(f0.stage == f1.stage)) ++violations;
      if (f0.hold != f1.hold) {
        // A hold mismatch means one FIFO shifted and the other did not;
        // with equal signatures that is only possible when the shifted-in
        // sample equals the shifted-out one — legal but worth counting.
      }
      for (unsigned p = 0; p < dm->config().num_ports; ++p)
        if (!f0.hold && !f1.hold && !(f0.port[p] == f1.port[p])) ++violations;
    }
  } checker;
  checker.dm = &dm;
  soc.add_observer(&checker);

  const assembler::Program program = workloads::build(config.workload, 1);
  soc.load_redundant(program, config.stagger, 1);
  dm.set_prelude_ignore(0, soc.prelude_commits(0));
  dm.set_prelude_ignore(1, soc.prelude_commits(1));
  soc.run(30'000'000);
  dm.finalize();

  ASSERT_TRUE(soc.all_halted());

  // Invariant 1: no false negatives.
  EXPECT_EQ(checker.violations, 0u);
  EXPECT_EQ(checker.nodiv_seen, dm.counters().nodiv_cycles);

  // Invariant 2: counter algebra. No-diversity requires both matches.
  const auto& c = dm.counters();
  EXPECT_LE(c.nodiv_cycles, c.ds_match_cycles);
  EXPECT_LE(c.nodiv_cycles, c.is_match_cycles);
  EXPECT_LE(c.ds_match_cycles, c.monitored_cycles);
  EXPECT_LE(c.is_match_cycles, c.monitored_cycles);
  EXPECT_LE(c.zero_stag_cycles, c.monitored_cycles);

  // Invariant 3: histogram episode mass equals the counted cycles.
  EXPECT_EQ(dm.nodiv_history().sample_sum(), c.nodiv_cycles);
  EXPECT_EQ(dm.ds_history().sample_sum(), c.ds_match_cycles);
  EXPECT_EQ(dm.is_history().sample_sum(), c.is_match_cycles);

  // Invariant 4: redundant results agree (functional redundancy intact).
  EXPECT_EQ(soc.memory().load(soc.config().data_base0, 8),
            soc.memory().load(soc.config().data_base1, 8))
      << config.workload;

  // Invariant 5: instruction diff ends at zero — both cores committed the
  // same program (preludes discounted).
  EXPECT_EQ(dm.instruction_diff(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MonitorInvariants, ::testing::ValuesIn(make_configs()),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           std::string name = info.param.workload + "_s" +
                                              std::to_string(info.param.stagger) + "_n" +
                                              std::to_string(info.param.depth) +
                                              (info.param.is_mode == IsMode::kFlatList ? "_flat"
                                                                                       : "");
                           return name;
                         });

}  // namespace
}  // namespace safedm::monitor
