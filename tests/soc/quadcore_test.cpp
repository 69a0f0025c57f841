// Four-core MPSoC tests: two redundant pairs sharing the bus and L2, each
// monitored by its own SafeDM instance (the paper's integration target is
// a 4-core Gaisler multicore).
#include <gtest/gtest.h>

#include "safedm/safedm/monitor.hpp"
#include "safedm/soc/soc.hpp"
#include "safedm/workloads/workloads.hpp"

namespace safedm::soc {
namespace {

SocConfig quad() {
  SocConfig config;
  config.num_cores = 4;
  return config;
}

TEST(QuadCore, TwoPairsRunToCompletion) {
  MpSoc soc{quad()};
  soc.load_redundant_group(0, workloads::build("bsort", 1));
  soc.load_redundant_group(1, workloads::build("isqrt", 1));
  soc.run(50'000'000);
  ASSERT_TRUE(soc.all_halted());
  // Pair 0 cores agree, pair 1 cores agree, the pairs differ.
  const u64 r0 = soc.memory().load(soc.data_base(0), 8);
  const u64 r1 = soc.memory().load(soc.data_base(1), 8);
  const u64 r2 = soc.memory().load(soc.data_base(2), 8);
  const u64 r3 = soc.memory().load(soc.data_base(3), 8);
  EXPECT_EQ(r0, r1);
  EXPECT_EQ(r2, r3);
  EXPECT_NE(r0, r2);
}

TEST(QuadCore, PerPairMonitorsSeeOnlyTheirPair) {
  MpSoc soc{quad()};
  monitor::SafeDmConfig dm_config;
  dm_config.start_enabled = true;
  monitor::SafeDm dm0(dm_config), dm1(dm_config);
  soc.add_observer(&dm0, 0);
  soc.add_observer(&dm1, 1);
  soc.load_redundant_group(0, workloads::build("bitcount", 1));
  soc.load_redundant_group(1, workloads::build("md5", 1));
  soc.run(50'000'000);
  dm0.finalize();
  dm1.finalize();
  ASSERT_TRUE(soc.all_halted());
  EXPECT_GT(dm0.counters().monitored_cycles, 1000u);
  EXPECT_GT(dm1.counters().monitored_cycles, 1000u);
  // Each pair's diff returns to zero independently.
  EXPECT_EQ(dm0.instruction_diff(), 0);
  EXPECT_EQ(dm1.instruction_diff(), 0);
}

TEST(QuadCore, UnloadedPairStaysParked) {
  MpSoc soc{quad()};
  soc.load_redundant_group(0, workloads::build("fac", 1));
  soc.run(50'000'000);
  ASSERT_TRUE(soc.all_halted());
  // Parked cores halted immediately with ~1 committed instruction.
  EXPECT_LE(soc.core(2).stats().committed, 1u);
  EXPECT_LE(soc.core(3).stats().committed, 1u);
  EXPECT_EQ(soc.memory().load(soc.data_base(0), 8), soc.memory().load(soc.data_base(1), 8));
}

TEST(QuadCore, CrossPairInterferencePerturbsTiming) {
  // The same pair-0 workload must take longer (or equal) wall-clock when a
  // second pair competes for the bus and L2.
  u64 solo_cycles = 0, contended_cycles = 0;
  {
    MpSoc soc{SocConfig{}};
    soc.load_redundant(workloads::build("matrix1", 1));
    soc.run(50'000'000);
    solo_cycles = soc.core(0).stats().cycles;
  }
  {
    MpSoc soc{quad()};
    soc.load_redundant_group(0, workloads::build("matrix1", 1));
    soc.load_redundant_group(1, workloads::build("fft", 1));
    u64 halt0 = 0;
    while (!soc.all_halted() && soc.cycle() < 50'000'000) {
      soc.step();
      if (halt0 == 0 && soc.core(0).halted() && soc.core(1).halted()) halt0 = soc.cycle();
    }
    ASSERT_TRUE(soc.all_halted());
    contended_cycles = halt0;
  }
  EXPECT_GE(contended_cycles, solo_cycles);
}

TEST(QuadCore, RejectsOddCoreCounts) {
  SocConfig config;
  config.num_cores = 3;
  EXPECT_THROW(MpSoc{config}, CheckError);
  config.num_cores = 10;
  EXPECT_THROW(MpSoc{config}, CheckError);
}

TEST(QuadCore, DataBasesAreDisjointPerCore) {
  MpSoc soc{quad()};
  for (unsigned i = 0; i < 4; ++i)
    for (unsigned j = i + 1; j < 4; ++j) EXPECT_NE(soc.data_base(i), soc.data_base(j));
}

}  // namespace
}  // namespace safedm::soc
