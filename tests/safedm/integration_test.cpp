// End-to-end SafeDM-on-MPSoC tests reproducing the paper's core claims:
//  - redundant execution on distinct address spaces is naturally diverse,
//  - no false negatives: every no-diversity cycle really has identical
//    monitored state,
//  - staggering removes both zero-staggering and no-diversity cycles,
//  - SafeDM is non-intrusive (cycle counts are unchanged by monitoring).
#include <gtest/gtest.h>

#include "safedm/isa/encode.hpp"
#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"

namespace safedm::monitor {
namespace {

using namespace assembler;
namespace e = isa::enc;

/// A small compute+memory benchmark: checksum over an array, several passes.
Program workload(unsigned passes = 4) {
  Assembler a;
  DataBuilder d;
  std::vector<u32> input;
  for (u32 i = 0; i < 64; ++i) input.push_back(i * 2654435761u);
  const u64 arr = d.add_u32_array(input);
  const u64 out = d.add_u64(0);
  Label pass = a.new_label(), loop = a.new_label(), inner_done = a.new_label();
  a.li(S1, static_cast<i64>(passes));
  a.li(S2, 0);
  a.bind(pass);
  a.lea_data(S0, arr);
  a.li(T0, 64);
  a.bind(loop);
  a.beqz(T0, inner_done);
  a(e::lwu(T1, S0, 0));
  a(e::add(S2, S2, T1));
  a(e::slli(T2, S2, 1));
  a(e::xor_(S2, S2, T2));
  a(e::addi(S0, S0, 4));
  a(e::addi(T0, T0, -1));
  a.j(loop);
  a.bind(inner_done);
  a(e::addi(S1, S1, -1));
  a.bnez(S1, pass);
  a.lea_data(S0, out);
  a(e::sd(S2, S0, 0));
  a(e::ecall());
  return a.assemble("checksum", std::move(d));
}

struct Rig {
  explicit Rig(SafeDmConfig dm_config = {}, soc::SocConfig soc_config = {})
      : soc(soc_config), dm([&] {
          dm_config.start_enabled = true;
          return dm_config;
        }()) {
    soc.add_observer(&dm);
    soc.apb().map(0x80000000, 0x100, &dm, "safedm");
  }

  u64 run_redundant(const Program& program, unsigned nops = 0, unsigned delayed = 1,
                    u64 max_cycles = 4'000'000) {
    soc.load_redundant(program, nops, delayed);
    dm.reset();
    dm.set_prelude_ignore(0, soc.prelude_commits(0));
    dm.set_prelude_ignore(1, soc.prelude_commits(1));
    const u64 cycles = soc.run(max_cycles);
    dm.finalize();
    return cycles;
  }

  soc::MpSoc soc;
  SafeDm dm;
};

TEST(SafeDmIntegration, RedundantRunIsMostlyDiverse) {
  Rig rig;
  rig.run_redundant(workload());
  ASSERT_TRUE(rig.soc.all_halted());
  const auto& c = rig.dm.counters();
  EXPECT_GT(c.monitored_cycles, 1000u);
  // Natural diversity: no-diversity cycles are a tiny fraction.
  EXPECT_LT(c.nodiv_cycles * 10, c.monitored_cycles);
  // Zero staggering is at least as frequent as no diversity (diversity can
  // exist at zero staggering, not vice versa in expectation).
  EXPECT_GE(c.zero_stag_cycles + c.nodiv_cycles, c.nodiv_cycles);
}

TEST(SafeDmIntegration, StaggeringRemovesZeroStagAndNoDiv) {
  Rig rig0;
  rig0.run_redundant(workload());
  Rig rig10k;
  rig10k.run_redundant(workload(), /*nops=*/10'000);
  EXPECT_LE(rig10k.dm.counters().zero_stag_cycles, rig0.dm.counters().zero_stag_cycles);
  EXPECT_EQ(rig10k.dm.counters().nodiv_cycles, 0u);
  EXPECT_EQ(rig10k.dm.counters().zero_stag_cycles, 0u);
}

TEST(SafeDmIntegration, MonitoringIsNonIntrusive) {
  // Run the same program with and without SafeDM attached: cycle counts
  // must be identical (the monitor only observes).
  soc::MpSoc bare{soc::SocConfig{}};
  bare.load_redundant(workload());
  const u64 bare_cycles = bare.run(4'000'000);

  Rig rig;
  const u64 monitored_cycles = rig.run_redundant(workload());
  EXPECT_EQ(bare_cycles, monitored_cycles);
}

TEST(SafeDmIntegration, NoFalseNegativesProperty) {
  // Independently recompute diversity from the raw tap frames each cycle:
  // whenever SafeDM reports no diversity, the monitored state (stage slots
  // + port FIFO windows) must be bit-identical. We verify the weaker but
  // direct form: any per-cycle difference in stage slots or port samples
  // implies SafeDM reports diversity for at least the window length.
  struct Checker : soc::CycleObserver {
    SafeDm* dm = nullptr;
    u64 violations = 0;
    bool needs_per_cycle() const override { return true; }  // reads the live verdict
    void on_group_cycles(u64 first, const core::CoreTapFrame* const* frames, unsigned n,
                         unsigned n_cycles) override {
      soc::deliver_pair_cycles(*this, first, frames, n, n_cycles);
    }
    void on_cycle(u64, const core::CoreTapFrame& f0, const core::CoreTapFrame& f1) {
      if (!dm->lacking_diversity_now()) return;
      // SafeDM said "no diversity" this cycle: the *current* frames'
      // monitored fields must agree (a current difference would make DS or
      // IS differ, a contradiction).
      if (!(f0.stage == f1.stage)) ++violations;
      for (unsigned p = 0; p < dm->config().num_ports; ++p)
        if (!f0.hold && !f1.hold && !(f0.port[p] == f1.port[p])) ++violations;
    }
  } checker;

  Rig rig;
  checker.dm = &rig.dm;
  rig.soc.add_observer(&checker);  // runs after the monitor each cycle
  rig.run_redundant(workload());
  EXPECT_EQ(checker.violations, 0u);
}

TEST(SafeDmIntegration, DistinctAddressSpacesAreTheDiversitySource) {
  // Ablation A3: with a shared data segment the cores' pointer values are
  // identical, so no-diversity cycles can only grow.
  soc::SocConfig shared;
  shared.shared_data = true;
  Rig rig_shared{SafeDmConfig{}, shared};
  rig_shared.run_redundant(workload());

  Rig rig_distinct;
  rig_distinct.run_redundant(workload());

  EXPECT_GE(rig_shared.dm.counters().nodiv_cycles,
            rig_distinct.dm.counters().nodiv_cycles);
}

TEST(SafeDmIntegration, ApbAccessOverSocBus) {
  Rig rig;
  rig.run_redundant(workload());
  const u64 nodiv = rig.dm.counters().nodiv_cycles;
  const u32 lo = rig.soc.apb().read(0x80000000 + reg::kNodivLo);
  const u32 hi = rig.soc.apb().read(0x80000000 + reg::kNodivHi);
  EXPECT_EQ((static_cast<u64>(hi) << 32) | lo, nodiv);
}

TEST(SafeDmIntegration, DiverseSoftwareAlsoMonitorable) {
  // SafeDM puts no constraints on the software (paper III-B4): monitoring
  // two *different* programs works and trivially shows diversity.
  Rig rig;
  rig.soc.load_distinct(workload(2), workload(5));
  rig.dm.reset();
  rig.soc.run(4'000'000);
  rig.dm.finalize();
  ASSERT_TRUE(rig.soc.all_halted());
  EXPECT_EQ(rig.dm.counters().nodiv_cycles, 0u);
}

TEST(SafeDmIntegration, IdenticalCcfWindowEqualsNoDivWindow) {
  // Failure-injection sanity: the risk window for a common-cause fault is
  // exactly the set of cycles SafeDM flags. Inject an "identical fault" at
  // a flagged cycle and at a diverse cycle, and check distinguishability:
  // at a diverse cycle the two cores' monitored state differs, so the same
  // physical fault cannot produce identical errors.
  Rig rig;
  struct Recorder : soc::CycleObserver {
    SafeDm* dm = nullptr;
    std::vector<bool> flagged;
    std::vector<bool> frames_equal;
    bool needs_per_cycle() const override { return true; }  // reads the live verdict
    void on_group_cycles(u64 first, const core::CoreTapFrame* const* frames, unsigned n,
                         unsigned n_cycles) override {
      soc::deliver_pair_cycles(*this, first, frames, n, n_cycles);
    }
    void on_cycle(u64, const core::CoreTapFrame& f0, const core::CoreTapFrame& f1) {
      flagged.push_back(dm->lacking_diversity_now());
      frames_equal.push_back(f0.stage == f1.stage);
    }
  } recorder;
  recorder.dm = &rig.dm;
  rig.soc.add_observer(&recorder);
  rig.run_redundant(workload());
  for (std::size_t i = 0; i < recorder.flagged.size(); ++i) {
    if (recorder.flagged[i]) {
      EXPECT_TRUE(recorder.frames_equal[i]) << "flagged cycle " << i << " had diverse pipelines";
    }
  }
}

}  // namespace
}  // namespace safedm::monitor
